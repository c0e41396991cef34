// Experiment E9 — Luby's MIS round complexity [Luby 1986].
//
// T_MIS is the multiplier in every round bound of the paper. The
// randomized algorithm finishes in O(log N) rounds w.h.p.; this harness
// measures rounds on conflict graphs of growing size and reports
// rounds / lg N, which must stay roughly constant.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/universe.hpp"
#include "framework/mis.hpp"
#include "gen/scenario.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace treesched;

namespace {

/// Largest number of distinct instances anyConflict visits from one
/// instance: the conflict graph's maximum degree.
std::int32_t maxDegree(const InstanceUniverse& universe) {
  std::vector<std::uint8_t> seen(
      static_cast<std::size_t>(universe.numInstances()), 0);
  std::vector<InstanceId> visited;
  std::int32_t best = 0;
  for (InstanceId i = 0; i < universe.numInstances(); ++i) {
    visited.clear();
    anyConflict(universe, i, [&](InstanceId w) {
      if (seen[static_cast<std::size_t>(w)] == 0) {
        seen[static_cast<std::size_t>(w)] = 1;
        visited.push_back(w);
      }
      return false;
    });
    best = std::max(best, static_cast<std::int32_t>(visited.size()));
    for (const InstanceId w : visited) seen[static_cast<std::size_t>(w)] = 0;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seeds", 8, "MIS seeds per graph");
  bench::Telemetry::addFlags(flags);
  if (!flags.parse(argc, argv)) return 0;
  bench::Telemetry telemetry(flags);
  const auto seeds = flags.getInt("seeds");

  bench::banner(
      "E9",
      "Luby's randomized MIS finishes in O(log N) rounds w.h.p. [14]; the "
      "paper's budgets assume T_MIS = O(log N)",
      "'rounds/lgN' stays roughly constant (~0.5-1.5) as N grows 64x; max "
      "rounds well under the protocol's 4*lg N + 8 budget");

  Table table({"N (instances)", "max degree", "rounds mean", "rounds max",
               "rounds/lgN", "budget (4lgN+8)"});

  for (std::int32_t m = 64; m <= 4096; m *= 4) {
    TreeScenarioConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(m) + 71;
    cfg.numVertices = 48;
    cfg.numNetworks = 3;
    cfg.demands.numDemands = m;
    cfg.demands.accessProbability = 0.7;
    const TreeProblem problem = makeTreeScenario(cfg);
    const InstanceUniverse universe =
        InstanceUniverse::fromTreeProblem(problem);

    std::vector<InstanceId> active(
        static_cast<std::size_t>(universe.numInstances()));
    for (InstanceId i = 0; i < universe.numInstances(); ++i) {
      active[static_cast<std::size_t>(i)] = i;
    }
    Summary rounds;
    for (std::int64_t s = 0; s < seeds; ++s) {
      const MisResult mis =
          lubyMis(universe, active, static_cast<std::uint64_t>(s) * 31 + 5);
      rounds.add(static_cast<double>(mis.rounds));
    }
    const double lg = std::log2(static_cast<double>(universe.numInstances()));
    table.row()
        .cell(universe.numInstances())
        .cell(maxDegree(universe))
        .cell(rounds.mean(), 2)
        .cell(static_cast<std::int64_t>(rounds.max()))
        .cell(rounds.mean() / lg, 3)
        .cell(static_cast<std::int64_t>(4 * std::ceil(lg) + 8));
  }
  table.print(std::cout);
  bench::finishUninstrumented(telemetry);
  return 0;
}
