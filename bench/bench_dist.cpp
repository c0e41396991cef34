// Experiment E11 — the distributed protocol over simulated message passing
// (paper §5 "Distributed Implementation").
//
// Reports simulated communication rounds (total and busy), message and
// payload counts, the O(M) message-size discipline, and verifies that the
// distributed run (a) reaches (1-eps)-satisfaction, (b) keeps every
// processor's local dual view exactly consistent with ground truth, and
// (c) matches the centralized engine bit-for-bit.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seed", 91, "base RNG seed");
  flags.stringFlag("json", "BENCH_dist.json",
                   "machine-readable report path ('' disables)");
  bench::Telemetry::addFlags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  bench::Telemetry telemetry(flags);

  bench::banner(
      "E11",
      "§5 distributed implementation: O(M) messages, round structure "
      "(2*T_MIS+1 per step + 1 per tuple for phase 2), local dual views "
      "stay consistent, output identical to the centralized engine",
      "'max msg' <= 2 units of M; 'consistent' and 'matches central' all "
      "'yes'; busy rounds a small fraction of scheduled rounds");

  Table table({"n", "m", "r", "rounds", "busy", "messages", "payload(M)",
               "max msg", "lambda", "consistent", "matches central"});
  bench::JsonReport report(flags.getString("json"));

  struct Config {
    std::int32_t n, m, r;
  };
  const Config configs[] = {{16, 12, 2}, {32, 24, 2}, {32, 48, 3},
                            {64, 64, 3}, {64, 96, 4}};
  bool allHold = true;
  for (const Config& c : configs) {
    TreeScenarioConfig cfg;
    cfg.seed = seed + static_cast<std::uint64_t>(c.n * 3 + c.m);
    cfg.numVertices = c.n;
    cfg.numNetworks = c.r;
    cfg.demands.numDemands = c.m;
    cfg.demands.accessProbability = 0.7;
    const TreeProblem problem = makeTreeScenario(cfg);

    DistributedOptions dopt;
    dopt.seed = cfg.seed + 1;
    dopt.misRoundBudget = 32;
    dopt.stepsPerStage = 10;
    // One registry per config row: the report embeds each run's
    // snapshot, so rows stay self-contained.
    MetricsRegistry metrics;
    dopt.tracer = telemetry.tracer();
    dopt.metrics = &metrics;
    const DistributedResult dist = runDistributedUnitTree(problem, dopt);
    if (telemetry.printMetrics()) {
      std::cout << metrics.describe();
    }

    InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
    const Layering layering = buildTreeLayering(problem, universe);
    FrameworkConfig copt;
    copt.seed = dopt.seed;
    copt.misRoundBudget = dopt.misRoundBudget;
    copt.fixedSchedule = true;
    copt.stepsPerStage = dopt.stepsPerStage;
    const TwoPhaseResult central = runTwoPhase(universe, layering, copt);
    std::vector<InstanceId> centralSorted = central.solution.instances;
    std::sort(centralSorted.begin(), centralSorted.end());
    const bool matches = dist.solution.instances == centralSorted;
    allHold = allHold && dist.localViewsConsistent && matches;

    table.row()
        .cell(c.n)
        .cell(c.m)
        .cell(c.r)
        .cell(dist.network.rounds)
        .cell(dist.network.busyRounds)
        .cell(dist.network.messages)
        .cell(dist.network.payload)
        .cell(dist.network.maxMessagePayload)
        .cell(dist.lambdaMeasured, 4)
        .cell(dist.localViewsConsistent ? "yes" : "NO")
        .cell(matches ? "yes" : "NO");

    report.row()
        .field("n", c.n)
        .field("m", c.m)
        .field("r", c.r)
        .field("rounds", dist.network.rounds)
        .field("busy_rounds", dist.network.busyRounds)
        .field("messages", dist.network.messages)
        .field("payload", dist.network.payload)
        .field("max_message_payload", dist.network.maxMessagePayload)
        .field("retransmissions", dist.network.retransmissions)
        .field("virtual_time", dist.network.virtualTime)
        .field("lambda", dist.lambdaMeasured)
        .field("consistent", dist.localViewsConsistent)
        .field("matches_central", matches)
        .jsonField("metrics", metrics.toJson());
  }
  table.print(std::cout);
  if (!flags.getString("json").empty()) {
    report.write();
  }
  telemetry.finish();
  return allHold ? 0 : 1;
}
