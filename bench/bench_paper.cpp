// The paper experiments E1–E13: one binary regenerates every claim of
// arXiv:1205.1924 that the repository reproduces (Lemmas 4.1 and 4.3,
// Theorems 5.3, 6.3, 7.1 and 7.2, Appendix A, the §5 implementation).
//
//   bench_paper --experiment <id> [experiment flags] [--trace F] [--metrics]
//
// kExperiments (bottom of the file) lists each experiment's id, banner and
// flags; only the chosen experiment's flags are accepted. Every run prints
// its banner and table; an experiment with sharp pass/fail checks (E1,
// E2, E11, E12) makes the binary exit 1 when one of them fails.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "algo/line_solvers.hpp"
#include "algo/sequential_tree.hpp"
#include "algo/tree_solvers.hpp"
#include "bench_common.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "decomp/tree_decomposition.hpp"
#include "dist/protocol.hpp"
#include "exact/brute_force.hpp"
#include "exact/greedy.hpp"
#include "exact/line_dp.hpp"
#include "exact/local_search.hpp"
#include "framework/mis.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "gen/tree_gen.hpp"
#include "net/runner.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace treesched;

namespace {

/// Best available estimate of OPT: exact when branch-and-bound finishes in
/// budget, otherwise the max of the incumbent and nothing better — callers
/// then fall back to the dual upper bound for the ratio.
struct OptEstimate {
  double lowerBound = 0;  ///< best feasible solution found
  bool exact = false;
};

OptEstimate estimateOpt(const InstanceUniverse& universe,
                        std::int64_t nodeBudget = 5'000'000) {
  const ExactResult result = bruteForceExact(universe, nodeBudget);
  return {result.profit, result.provedOptimal};
}

/// The tree scenario most experiments draw: m demands over r networks of
/// n vertices, each demand reaching each network with probability
/// `access`. Callers tweak profits or heights on the returned config.
TreeScenarioConfig treeConfig(std::uint64_t seed, std::int32_t n,
                              std::int32_t m, std::int32_t r,
                              double access = 0.7) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = n;
  cfg.numNetworks = r;
  cfg.demands.numDemands = m;
  cfg.demands.accessProbability = access;
  return cfg;
}

// ---- E1 — tree-decomposition parameters (paper §4.2, Lemma 4.1)
//
// Regenerates the paper's decomposition trade-off as a table: root-fixing
// (theta = 1, depth up to n), balancing (depth <= ceil(lg n)+1, theta up
// to the depth) and the ideal decomposition (depth <= 2 ceil(lg n)+1,
// theta <= 2) across tree shapes and sizes. The Lemma 4.1 bounds are sharp
// pass/fail: the "ok" column marks depth <= 2*ceil(lg n)+1 AND theta <= 2.

bool runDecomposition(const CliFlags& flags, bench::Telemetry& /*unused*/) {
  Table table({"shape", "n", "rf depth", "rf theta", "bal depth", "bal theta",
               "ideal depth", "ideal theta", "ideal bound", "ideal ok"});
  const auto maxN = static_cast<std::int32_t>(flags.getInt("max-n"));
  Rng rng(static_cast<std::uint64_t>(flags.getInt("seed")));
  bool allHold = true;
  for (const TreeShape shape :
       {TreeShape::UniformRandom, TreeShape::Path, TreeShape::Caterpillar,
        TreeShape::Star, TreeShape::BalancedBinary}) {
    for (std::int32_t n = 16; n <= maxN; n *= 4) {
      Rng treeRng = rng.fork(static_cast<std::uint64_t>(n) * 131 +
                             static_cast<std::uint64_t>(shape));
      const TreeNetwork t = generateTree(shape, 0, n, treeRng);
      const TreeDecomposition rf = rootFixingDecomposition(t);
      const TreeDecomposition bal = balancingDecomposition(t);
      const TreeDecomposition ideal = idealDecomposition(t);
      // ceil(lg n) = bit_width(n - 1).
      const auto bound = static_cast<std::int32_t>(
          2 * std::bit_width(static_cast<std::uint32_t>(n - 1)) + 1);
      const std::int32_t idealTheta = pivotSize(t, ideal);
      const bool ok = ideal.maxDepth() <= bound && idealTheta <= 2;
      allHold = allHold && ok;
      table.row()
          .cell(treeShapeName(shape))
          .cell(n)
          .cell(rf.maxDepth())
          .cell(pivotSize(t, rf))
          .cell(bal.maxDepth())
          .cell(pivotSize(t, bal))
          .cell(ideal.maxDepth())
          .cell(idealTheta)
          .cell(bound)
          .cell(ok ? "yes" : "NO");
    }
  }
  table.print(std::cout);
  return allHold;
}

// ---- E2 — layered decompositions (paper Lemmas 4.2/4.3 and §7)
//
// Measures the critical-set size Delta and the number of groups for the
// tree layering under each decomposition kind, and for the line layering,
// and exhaustively verifies the interference property on each instance.

bool runLayers(const CliFlags& flags, bench::Telemetry& /*unused*/) {
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  Table table({"universe", "decomposition", "instances", "groups", "Delta",
               "Delta bound", "interference"});
  bool allHold = true;

  for (std::int32_t n : {32, 64, 128}) {
    const TreeProblem problem = makeTreeScenario(
        treeConfig(seed + static_cast<std::uint64_t>(n), n, 2 * n, 3, 0.6));
    const InstanceUniverse universe =
        InstanceUniverse::fromTreeProblem(problem);
    for (const DecompositionKind kind :
         {DecompositionKind::Ideal, DecompositionKind::Balancing,
          DecompositionKind::RootFixing}) {
      const Layering layering = buildTreeLayering(problem, universe, kind);
      const std::string bound = kind == DecompositionKind::Ideal ? "6"
                                : kind == DecompositionKind::RootFixing
                                    ? "4"
                                    : "2*(theta+1)";
      const bool holds = checkLayering(universe, layering).empty();
      allHold = allHold && holds;
      table.row()
          .cell("tree n=" + std::to_string(n))
          .cell(decompositionKindName(kind))
          .cell(universe.numInstances())
          .cell(layering.numGroups)
          .cell(layering.maxCriticalSize)
          .cell(bound)
          .cell(holds ? "holds" : "VIOLATED");
    }
  }

  for (std::int32_t slots : {64, 256}) {
    for (double slack : {0.0, 1.0}) {
      LineScenarioConfig cfg;
      cfg.seed = seed + static_cast<std::uint64_t>(slots) + 7;
      cfg.numSlots = slots;
      cfg.numResources = 3;
      cfg.demands.numDemands = slots;
      cfg.demands.processingMax = slots / 8;
      cfg.demands.windowSlack = slack;
      cfg.demands.accessProbability = 0.6;
      const LineProblem problem = makeLineScenario(cfg);
      const InstanceUniverse universe =
          InstanceUniverse::fromLineProblem(problem);
      const Layering layering = buildLineLayering(problem, universe);
      const bool holds = checkLayering(universe, layering).empty();
      allHold = allHold && holds;
      table.row()
          .cell("line slots=" + std::to_string(slots) + " slack=" +
                formatDouble(slack, 1))
          .cell("length-buckets")
          .cell(universe.numInstances())
          .cell(layering.numGroups)
          .cell(layering.maxCriticalSize)
          .cell("3")
          .cell(holds ? "holds" : "VIOLATED");
    }
  }

  table.print(std::cout);
  return allHold;
}

// ---- E3 — unit-height trees: approximation quality (Theorem 5.3)
//
// Measures p(S) against the exact optimum (branch-and-bound, small
// instances) and against the LP-dual certificate val/lambda (all sizes).
// The paper proves ratio <= 7+eps; typical measured ratios are far better.
// Also compares against the profit-greedy baseline.

bool runUnitTree(const CliFlags& flags, bench::Telemetry& /*unused*/) {
  const auto seeds = flags.getInt("seeds");
  const double epsilon = flags.getDouble("epsilon");
  Table table({"n", "m", "r", "vs OPT", "OPT exact", "vs dual UB", "certified",
               "profit", "greedy", "rounds(MIS)"});

  struct Config {
    std::int32_t n, m, r;
  };
  const Config configs[] = {{12, 10, 2},   {16, 16, 2},  {24, 20, 3},
                            {64, 96, 3},   {128, 256, 4}, {256, 512, 4}};
  for (const Config& c : configs) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      TreeScenarioConfig cfg =
          treeConfig(static_cast<std::uint64_t>(s) * 7919 + 11, c.n, c.m, c.r);
      cfg.demands.profitMax = 10.0;
      const TreeProblem problem = makeTreeScenario(cfg);

      SolverOptions options;
      options.epsilon = epsilon;
      options.seed = cfg.seed + 1;
      const TreeSolveResult result = solveUnitTree(problem, options);

      InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
      const OptEstimate opt = c.m <= 20 ? estimateOpt(universe)
                                        : OptEstimate{result.profit, false};
      const GreedyResult greedy = greedyByProfit(universe);

      table.row()
          .cell(c.n)
          .cell(c.m)
          .cell(c.r)
          .cell(opt.exact ? formatDouble(opt.lowerBound / result.profit, 3)
                          : std::string("-"))
          .cell(opt.exact ? "yes" : "no")
          .cell(result.dualUpperBound / result.profit, 3)
          .cell(result.certifiedBound, 3)
          .cell(result.profit, 1)
          .cell(greedy.profit, 1)
          .cell(result.stats.misRounds);
    }
  }
  table.print(std::cout);
  return true;
}

// ---- E4 — round complexity (Theorem 5.3, Lemma 5.1)
//
// The paper bounds the communication rounds by
//   O(T_MIS * log n * log(1/eps) * log(pmax/pmin)).
// Each sub-table sweeps ONE factor with the others pinned and reports the
// measured epochs (= layering groups ~ log n), stages per epoch
// (~ log(1/eps)), max steps per stage (~ log(pmax/pmin), Lemma 5.1) and
// Luby rounds. Reproduction = each measured column grows linearly in its
// own log-factor and is flat in the others.

TreeSolveResult solveRoundsCase(std::int32_t n, std::int32_t m,
                                double epsilon, double pmax,
                                std::uint64_t seed) {
  TreeScenarioConfig cfg = treeConfig(seed, n, m, 3);
  cfg.demands.profitMax = pmax;
  const TreeProblem problem = makeTreeScenario(cfg);
  SolverOptions options;
  options.epsilon = epsilon;
  options.seed = seed + 1;
  return solveUnitTree(problem, options);
}

void emitRoundsRow(Table& table, const std::string& sweep,
                   const std::string& value, const TreeSolveResult& r) {
  table.row()
      .cell(sweep)
      .cell(value)
      .cell(r.stats.epochs)
      .cell(r.stats.stages / std::max(1, r.stats.epochs))
      .cell(r.stats.maxStepsInStage)
      .cell(r.stats.steps)
      .cell(r.stats.misRounds)
      .cell(r.stats.lambdaMeasured, 4);
}

bool runRounds(const CliFlags& flags, bench::Telemetry& /*unused*/) {
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  Table table({"sweep", "value", "epochs", "stages/epoch", "max steps/stage",
               "total steps", "MIS rounds", "lambda"});

  // Sweep 1: n doubling; eps = 0.1, pmax/pmin = 8.
  for (std::int32_t n = 32; n <= 512; n *= 2) {
    emitRoundsRow(table, "n", std::to_string(n),
                  solveRoundsCase(n, 2 * n, 0.1, 8.0,
                                  seed + static_cast<std::uint64_t>(n)));
  }
  // Sweep 2: eps halving; n = 64, pmax/pmin = 8.
  for (const double eps : {0.4, 0.2, 0.1, 0.05, 0.025}) {
    emitRoundsRow(table, "epsilon", formatDouble(eps, 3),
                  solveRoundsCase(64, 128, eps, 8.0, seed + 1000));
  }
  // Sweep 3: profit spread doubling; n = 64, eps = 0.1.
  for (const double pmax : {2.0, 8.0, 32.0, 128.0, 512.0}) {
    emitRoundsRow(table, "pmax/pmin", formatDouble(pmax, 0),
                  solveRoundsCase(64, 128, 0.1, pmax, seed + 2000));
  }
  table.print(std::cout);
  return true;
}

// ---- E5 — arbitrary heights on trees (Theorem 6.3, Lemma 6.2)
//
// Mixed-height workloads: measures the combined solution against the dual
// certificate (and exact OPT on small instances); sweeps hmin to show the
// 1/hmin factor in the narrow stage count; reports the wide/narrow split
// the combine step chooses from.

bool runArbTree(const CliFlags& flags, bench::Telemetry& /*unused*/) {
  const auto seeds = flags.getInt("seeds");
  Table table({"n", "m", "hmin", "vs OPT", "OPT exact", "vs dual UB",
               "profit", "wide part", "narrow part", "narrow stages"});

  struct Config {
    std::int32_t n, m;
    double hmin;
  };
  const Config configs[] = {{10, 8, 0.25},  {16, 14, 0.25}, {48, 96, 0.5},
                            {48, 96, 0.25}, {48, 96, 0.125}};
  for (const Config& c : configs) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      TreeScenarioConfig cfg =
          treeConfig(static_cast<std::uint64_t>(s) * 104729 + 31, c.n, c.m, 2);
      cfg.demands.heights = HeightMode::Mixed;
      cfg.demands.hmin = c.hmin;
      const TreeProblem problem = makeTreeScenario(cfg);

      SolverOptions options;
      options.seed = cfg.seed + 1;
      options.hmin = c.hmin;
      const ArbitraryTreeResult result = solveArbitraryTree(problem, options);

      InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
      const OptEstimate opt = c.m <= 16 ? estimateOpt(universe)
                                        : OptEstimate{result.profit, false};

      const std::int32_t narrowStages =
          result.narrowStats
              ? result.narrowStats->stages /
                    std::max(1, result.narrowStats->epochs)
              : 0;
      table.row()
          .cell(c.n)
          .cell(c.m)
          .cell(c.hmin, 3)
          .cell(opt.exact && result.profit > 0
                    ? formatDouble(opt.lowerBound / result.profit, 3)
                    : std::string("-"))
          .cell(opt.exact ? "yes" : "no")
          .cell(result.profit > 0
                    ? formatDouble(result.dualUpperBound / result.profit, 3)
                    : std::string("-"))
          .cell(result.profit, 1)
          .cell(result.wideProfit, 1)
          .cell(result.narrowProfit, 1)
          .cell(narrowStages);
    }
  }
  table.print(std::cout);
  return true;
}

// ---- E6 — unit-height lines with windows (Theorem 7.1) vs the
// Panconesi-Sozio baseline
//
// The paper's headline improvement: the staged schedule lifts lambda from
// 1/(5+eps) to 1-eps, cutting the worst-case ratio from (20+eps) to
// (4+eps). Both algorithms run on IDENTICAL inputs with the identical
// Delta=3 layering; only the schedule differs. Also reports exact OPT
// (small instances / single-resource DP) and profit-greedy.

bool runLineUnit(const CliFlags& flags, bench::Telemetry& /*unused*/) {
  const auto seeds = flags.getInt("seeds");
  const double epsilon = flags.getDouble("epsilon");
  Table table({"slots", "m", "r", "windows", "ours", "PS", "greedy", "OPT",
               "ours vs UB", "PS vs UB", "ours bound", "PS bound"});

  struct Config {
    std::int32_t slots, m, r;
    double slack;
  };
  const Config configs[] = {{24, 8, 1, 0.0},   {24, 8, 2, 0.5},
                            {64, 48, 2, 0.0},  {64, 48, 2, 1.0},
                            {256, 160, 3, 0.5}, {320, 192, 4, 0.5}};
  for (const Config& c : configs) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      LineScenarioConfig cfg;
      cfg.seed = static_cast<std::uint64_t>(s) * 15485863 + 41;
      cfg.numSlots = c.slots;
      cfg.numResources = c.r;
      cfg.demands.numDemands = c.m;
      cfg.demands.processingMax =
          std::max(2, c.slots / (c.slots >= 256 ? 16 : 8));
      cfg.demands.windowSlack = c.slack;
      cfg.demands.accessProbability = 0.7;
      const LineProblem problem = makeLineScenario(cfg);

      SolverOptions options;
      options.epsilon = epsilon;
      options.seed = cfg.seed + 1;
      const LineSolveResult ours = solveUnitLine(problem, options);
      const LineSolveResult ps = solvePanconesiSozioUnitLine(problem, options);

      InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
      const GreedyResult greedy = greedyByProfit(universe);

      std::string optCell = "-";
      if (c.r == 1 && c.slack == 0.0) {
        optCell = formatDouble(lineDpExact(problem).profit, 1);
      } else if (c.m <= 10) {
        const OptEstimate opt = estimateOpt(universe);
        if (opt.exact) optCell = formatDouble(opt.lowerBound, 1);
      }

      table.row()
          .cell(c.slots)
          .cell(c.m)
          .cell(c.r)
          .cell(c.slack > 0 ? "yes" : "no")
          .cell(ours.profit, 1)
          .cell(ps.profit, 1)
          .cell(greedy.profit, 1)
          .cell(optCell)
          .cell(ours.dualUpperBound / std::max(1e-9, ours.profit), 3)
          .cell(ps.dualUpperBound / std::max(1e-9, ps.profit), 3)
          .cell(ours.certifiedBound, 2)
          .cell(ps.certifiedBound, 2);
    }
  }
  table.print(std::cout);
  return true;
}

// ---- E7 — arbitrary heights on lines with windows (Theorem 7.2)
//
// (23+eps) via wide (4+eps) + narrow (19+eps) with per-resource combine,
// against a PS-style threshold baseline on identical inputs. PS's
// published arbitrary-height constant is (55+eps) with different raise
// details; the reconstruction here changes ONLY the schedule policy, so
// the gap isolates the staged-slackness contribution.

bool runLineArb(const CliFlags& flags, bench::Telemetry& /*unused*/) {
  const auto seeds = flags.getInt("seeds");
  Table table({"slots", "m", "hmin", "ours", "PS-style", "OPT", "ours vs UB",
               "ours bound", "PS bound", "wide part", "narrow part"});

  struct Config {
    std::int32_t slots, m;
    double hmin;
  };
  const Config configs[] = {
      {20, 7, 0.25}, {48, 32, 0.5}, {48, 32, 0.25}, {128, 96, 0.25}};
  for (const Config& c : configs) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      LineScenarioConfig cfg;
      cfg.seed = static_cast<std::uint64_t>(s) * 6700417 + 51;
      cfg.numSlots = c.slots;
      cfg.numResources = 2;
      cfg.demands.numDemands = c.m;
      cfg.demands.heights = HeightMode::Mixed;
      cfg.demands.hmin = c.hmin;
      cfg.demands.processingMax = std::max(2, c.slots / 8);
      cfg.demands.windowSlack = 0.5;
      cfg.demands.accessProbability = 0.7;
      const LineProblem problem = makeLineScenario(cfg);

      SolverOptions options;
      options.seed = cfg.seed + 1;
      options.hmin = c.hmin;
      const ArbitraryLineResult ours = solveArbitraryLine(problem, options);
      const ArbitraryLineResult ps =
          solvePanconesiSozioArbitraryLine(problem, options);

      std::string optCell = "-";
      if (c.m <= 8) {
        InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
        const OptEstimate opt = estimateOpt(universe);
        if (opt.exact) optCell = formatDouble(opt.lowerBound, 1);
      }

      table.row()
          .cell(c.slots)
          .cell(c.m)
          .cell(c.hmin, 3)
          .cell(ours.profit, 1)
          .cell(ps.profit, 1)
          .cell(optCell)
          .cell(ours.profit > 0
                    ? formatDouble(ours.dualUpperBound / ours.profit, 3)
                    : std::string("-"))
          .cell(ours.certifiedBound, 2)
          .cell(ps.certifiedBound, 2)
          .cell(ours.wideProfit, 1)
          .cell(ours.narrowProfit, 1);
    }
  }
  table.print(std::cout);
  return true;
}

// ---- E8 — sequential algorithm for trees (paper Appendix A)
//
// Delta = 2, lambda = 1 -> 3-approximation (2 for a single network).
// Measures the actual ratio against exact OPT on small instances and the
// dual certificate at scale, plus the iteration count (which, unlike the
// distributed algorithm, can reach |D|).

bool runSequential(const CliFlags& flags, bench::Telemetry& /*unused*/) {
  const auto seeds = flags.getInt("seeds");
  Table table({"n", "m", "r", "vs OPT", "OPT exact", "vs dual UB", "bound",
               "iterations", "instances", "seq profit", "dist profit"});

  struct Config {
    std::int32_t n, m, r;
  };
  const Config configs[] = {{12, 9, 1},  {12, 9, 2},   {24, 18, 2},
                            {64, 96, 1}, {64, 96, 3},  {256, 384, 3}};
  for (const Config& c : configs) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      const TreeScenarioConfig cfg = treeConfig(
          static_cast<std::uint64_t>(s) * 982451653 + 61, c.n, c.m, c.r);
      const TreeProblem problem = makeTreeScenario(cfg);

      const SequentialTreeResult seq = solveSequentialTree(problem);
      SolverOptions options;
      options.seed = cfg.seed + 1;
      const TreeSolveResult dist = solveUnitTree(problem, options);

      InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
      const OptEstimate opt = c.m <= 18 ? estimateOpt(universe)
                                        : OptEstimate{seq.profit, false};

      table.row()
          .cell(c.n)
          .cell(c.m)
          .cell(c.r)
          .cell(opt.exact ? formatDouble(opt.lowerBound / seq.profit, 3)
                          : std::string("-"))
          .cell(opt.exact ? "yes" : "no")
          .cell(seq.dualUpperBound / seq.profit, 3)
          .cell(seq.certifiedBound, 1)
          .cell(seq.iterations)
          .cell(universe.numInstances())
          .cell(seq.profit, 1)
          .cell(dist.profit, 1);
    }
  }
  table.print(std::cout);
  return true;
}

// ---- E9 — Luby's MIS round complexity [Luby 1986]
//
// T_MIS is the multiplier in every round bound of the paper. The
// randomized algorithm finishes in O(log N) rounds w.h.p.; this harness
// measures rounds on conflict graphs of growing size and reports
// rounds / lg N, which must stay roughly constant.

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

bool runMis(const CliFlags& flags, bench::Telemetry& /*unused*/) {
  const auto seeds = flags.getInt("seeds");
  Table table({"N (instances)", "max degree", "rounds mean", "rounds max",
               "rounds/lgN", "budget (4lgN+8)"});

  for (std::int32_t m = 64; m <= 4096; m *= 4) {
    const TreeProblem problem = makeTreeScenario(
        treeConfig(static_cast<std::uint64_t>(m) + 71, 48, m, 3));
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
  return true;
}

// ---- E10 — ablations of the paper's two technical contributions
//
// (a) Schedule: staged (lambda = 1-eps, this paper) vs threshold
//     (lambda = 1/(5+eps), Panconesi-Sozio) on identical tree instances
//     with the identical ideal layering — isolates contribution #2.
// (b) Decomposition behind the layering: ideal (theta = 2 -> Delta <= 6)
//     vs balancing (theta up to lg n -> larger Delta) vs root-fixing
//     (Delta <= 4 but depth/groups up to n) — isolates contribution #1;
//     the root-fixing column shows WHY depth matters: its epoch count
//     explodes, which is exactly the round blow-up the ideal
//     decomposition removes.

bool runAblation(const CliFlags& flags, bench::Telemetry& /*unused*/) {
  const auto n = static_cast<std::int32_t>(flags.getInt("n"));
  const auto seeds = flags.getInt("seeds");
  Table table({"variant", "seed", "Delta", "epochs", "lambda", "certified",
               "profit", "vs dual UB", "MIS rounds"});

  struct Variant {
    std::string name;
    SchedulePolicy schedule;
    DecompositionKind decomposition;
  };
  const Variant variants[] = {
      {"staged+ideal (paper)", SchedulePolicy::Staged,
       DecompositionKind::Ideal},
      {"threshold+ideal (PS schedule)", SchedulePolicy::Threshold,
       DecompositionKind::Ideal},
      {"staged+balancing", SchedulePolicy::Staged,
       DecompositionKind::Balancing},
      {"staged+root-fixing", SchedulePolicy::Staged,
       DecompositionKind::RootFixing},
  };

  for (const Variant& v : variants) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      const TreeProblem problem = makeTreeScenario(treeConfig(
          static_cast<std::uint64_t>(s) * 2654435761 + 81, n, 2 * n, 3));
      SolverOptions options;
      options.seed = static_cast<std::uint64_t>(s) + 7;
      options.schedule = v.schedule;
      options.decomposition = v.decomposition;
      const TreeSolveResult r = solveUnitTree(problem, options);
      table.row()
          .cell(v.name)
          .cell(s)
          .cell(r.stats.delta)
          .cell(r.stats.epochs)
          .cell(r.stats.lambdaMeasured, 4)
          .cell(r.certifiedBound, 2)
          .cell(r.profit, 1)
          .cell(r.dualUpperBound / r.profit, 3)
          .cell(r.stats.misRounds);
    }
  }
  table.print(std::cout);
  return true;
}

// ---- E11 — the distributed protocol over simulated message passing
// (paper §5 "Distributed Implementation")
//
// Reports simulated communication rounds (total and busy), message and
// payload counts, the O(M) message-size discipline, and verifies that the
// distributed run (a) reaches (1-eps)-satisfaction, (b) keeps every
// processor's local dual view exactly consistent with ground truth, and
// (c) matches the centralized engine bit-for-bit.

bool runDist(const CliFlags& flags, bench::Telemetry& telemetry) {
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
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
    const TreeScenarioConfig cfg = treeConfig(
        seed + static_cast<std::uint64_t>(c.n * 3 + c.m), c.n, c.m, c.r);
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
    if (telemetry.printMetrics()) std::cout << metrics.describe();

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
        .field("silent_rounds", dist.network.silentRounds)
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
  return allHold;
}

// ---- E12 — the §5 protocol over the asynchronous lossy network
// (net/: alpha-synchronizer + ack/retransmission + sharding)
//
// Runs the lossy_wide_area presets (heavy-tail latency, 5% drops,
// locality sharding) and reports what the wire costs: virtual time,
// physical transmissions vs demand-level messages, retransmissions and
// drops — while verifying the result stays bit-identical to the
// round-synchronous bus. Emits BENCH_async.json next to the table so the
// async perf trajectory is tracked over time.

bool runAsync(const CliFlags& flags, bench::Telemetry& telemetry) {
  const auto seed0 = static_cast<std::uint64_t>(flags.getInt("seed"));
  const auto numSeeds = flags.getInt("seeds");
  Table table({"kind", "n", "m", "shards", "rounds", "messages", "wire tx",
               "retx", "drops", "vtime", "max load", "consistent",
               "matches sync"});
  bench::JsonReport json(flags.getString("json"));

  DistributedOptions dopt;
  dopt.misRoundBudget = 8;
  dopt.stepsPerStage = 6;
  bool allHold = true;

  // One row: `asyncRun(dopt)` over the lossy wire against `syncRun(dopt)`
  // on the round-synchronous bus. Telemetry rides only the async run (the
  // sync run is only the bit-identity comparator); the registry is
  // per-row so each JSON row embeds its own snapshot.
  const auto row = [&](const std::string& kind, std::int32_t n,
                       std::int32_t m, std::int32_t shards,
                       const auto& asyncRun, const auto& syncRun) {
    MetricsRegistry metrics;
    dopt.tracer = telemetry.tracer();
    dopt.metrics = &metrics;
    const DistributedResult async = asyncRun(dopt);
    dopt.tracer = nullptr;
    dopt.metrics = nullptr;
    const DistributedResult sync = syncRun(dopt);
    if (telemetry.printMetrics()) std::cout << metrics.describe();

    const bool matches = async.solution.instances == sync.solution.instances &&
                         async.profit == sync.profit;
    allHold = allHold && async.localViewsConsistent && matches;
    std::int64_t maxLoad = 0;
    for (const std::int64_t load : async.network.processorLoad) {
      maxLoad = std::max(maxLoad, load);
    }
    table.row()
        .cell(kind)
        .cell(n)
        .cell(m)
        .cell(shards)
        .cell(async.network.rounds)
        .cell(async.network.messages)
        .cell(async.network.transmissions)
        .cell(async.network.retransmissions)
        .cell(async.network.drops)
        .cell(async.network.virtualTime, 1)
        .cell(maxLoad)
        .cell(async.localViewsConsistent ? "yes" : "NO")
        .cell(matches ? "yes" : "NO");
    json.row()
        .field("kind", kind)
        .field("n", n)
        .field("m", m)
        .field("shard_processors", shards)
        .field("rounds", async.network.rounds)
        .field("busy_rounds", async.network.busyRounds)
        .field("silent_rounds", async.network.silentRounds)
        .field("messages", async.network.messages)
        .field("payload", async.network.payload)
        .field("transmissions", async.network.transmissions)
        .field("marker_transmissions", async.network.markerTransmissions)
        .field("retransmissions", async.network.retransmissions)
        .field("drops", async.network.drops)
        .field("virtual_time", async.network.virtualTime)
        .field("max_processor_load", maxLoad)
        .field("consistent", async.localViewsConsistent)
        .field("matches_sync", matches)
        .jsonField("metrics", metrics.toJson());
  };

  for (std::int64_t s = 0; s < numSeeds; ++s) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(s) * 31;
    dopt.seed = seed + 3;
    for (const std::int32_t shards : {0, 6}) {
      const LossyWideAreaTreeScenario tree =
          makeLossyWideAreaTree(seed, 48, 3, 36, shards);
      row("tree", tree.problem.numVertices,
          static_cast<std::int32_t>(tree.problem.demands.size()), shards,
          [&](const DistributedOptions& o) {
            return runAsyncUnitTree(tree.problem, o, tree.net);
          },
          [&](const DistributedOptions& o) {
            return runDistributedUnitTree(tree.problem, o);
          });
    }
    for (const std::int32_t shards : {0, 5}) {
      const LossyWideAreaLineScenario line =
          makeLossyWideAreaLine(seed, 96, 3, 30, shards);
      row("line", line.problem.numSlots,
          static_cast<std::int32_t>(line.problem.demands.size()), shards,
          [&](const DistributedOptions& o) {
            return runAsyncUnitLine(line.problem, o, line.net);
          },
          [&](const DistributedOptions& o) {
            return runDistributedUnitLine(line.problem, o);
          });
    }
  }
  table.print(std::cout);
  if (!flags.getString("json").empty()) {
    json.write();
  }
  return allHold;
}

// ---- E13 (extension) — local-search post-processing
//
// Quantifies how much a cheap deterministic cleanup (add + 1-out swap
// moves) recovers on top of each algorithm's phase-2 greedy, and how close
// the combination gets to the dual certificate. Not part of the paper's
// protocol; it demonstrates that the primal-dual solutions are good
// *starting points* whose guarantees survive post-processing.

Solution solutionFromAssignments(const InstanceUniverse& u,
                                 const std::vector<TreeAssignment>& as) {
  Solution s;
  for (const TreeAssignment& a : as) {
    for (const InstanceId i : u.instancesOfDemand(a.demand)) {
      if (u.instance(i).network == a.network) {
        s.instances.push_back(i);
      }
    }
  }
  return s;
}

bool runImprover(const CliFlags& flags, bench::Telemetry& /*unused*/) {
  const auto seeds = flags.getInt("seeds");
  Table table({"n", "m", "algorithm", "base", "+LS", "gain%", "vs UB before",
               "vs UB after", "swaps"});

  struct Config {
    std::int32_t n, m;
  };
  const Config configs[] = {{24, 40}, {64, 128}, {128, 256}};
  for (const Config& c : configs) {
    for (std::int64_t s = 0; s < seeds; ++s) {
      const TreeScenarioConfig cfg = treeConfig(
          static_cast<std::uint64_t>(s) * 7368787 + 13, c.n, c.m, 3);
      const TreeProblem problem = makeTreeScenario(cfg);
      InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);

      SolverOptions options;
      options.seed = cfg.seed + 1;
      const TreeSolveResult dist = solveUnitTree(problem, options);
      const SequentialTreeResult seq = solveSequentialTree(problem);
      const GreedyResult greedy = greedyByProfit(u);

      struct Row {
        std::string name;
        Solution start;
        double base;
        double ub;
      };
      const Row rows[] = {
          {"distributed", solutionFromAssignments(u, dist.assignments),
           dist.profit, dist.dualUpperBound},
          {"sequential", solutionFromAssignments(u, seq.assignments),
           seq.profit, seq.dualUpperBound},
          {"greedy", greedy.solution, greedy.profit, dist.dualUpperBound},
      };
      for (const Row& row : rows) {
        const LocalSearchResult ls = improveSolution(u, row.start);
        table.row()
            .cell(c.n)
            .cell(c.m)
            .cell(row.name)
            .cell(row.base, 1)
            .cell(ls.profit, 1)
            .cell(100.0 * (ls.profit - row.base) / row.base, 1)
            .cell(row.ub / row.base, 3)
            .cell(row.ub / ls.profit, 3)
            .cell(ls.swapMoves);
      }
    }
  }
  table.print(std::cout);
  return true;
}

// ---- The registry

/// One paper experiment: its banner (label, claim, expectation), the flags
/// it accepts besides --trace/--metrics, and its run, which prints the
/// table and returns whether every sharp check held.
struct Experiment {
  std::string_view id;  ///< the --experiment value
  std::string_view label;
  std::string_view claim;
  std::string_view expectation;
  /// Whether the run publishes into the telemetry plane. For the others,
  /// --metrics prints an explicitly empty snapshot, so every experiment
  /// shares the same telemetry interface.
  bool instrumented;
  void (*addFlags)(CliFlags&);
  bool (*run)(const CliFlags&, bench::Telemetry&);
};

void seedsFlag(CliFlags& flags) {
  flags.intFlag("seeds", 3, "seeds per configuration");
}

void seedsAndEpsilonFlags(CliFlags& flags) {
  seedsFlag(flags);
  flags.doubleFlag("epsilon", 0.1, "approximation slack");
}

constexpr Experiment kExperiments[] = {
    {"decomposition", "E1",
     "Lemma 4.1: ideal tree decomposition has depth <= 2*ceil(lg n)+1 and "
     "pivot size theta <= 2; root-fixing has theta = 1 (deep); balancing is "
     "shallow but theta grows (paper §4.2)",
     "every 'ideal ok' cell true; root-fixing theta always 1; balancing "
     "theta exceeding 2 on some shapes (why the ideal construction exists)",
     false,
     [](CliFlags& flags) {
       flags.intFlag("max-n", 4096, "largest tree size in the sweep")
           .intFlag("seed", 1, "base RNG seed");
     },
     runDecomposition},
    {"layers", "E2",
     "Lemma 4.3: tree layering from the ideal decomposition has Delta <= 6 "
     "and O(log n) groups; §7: line layering has Delta <= 3 and "
     "ceil(lg(Lmax/Lmin)) groups; both satisfy the interference property",
     "Delta columns within bounds; every 'interference' cell 'holds'", false,
     [](CliFlags& flags) { flags.intFlag("seed", 1, "base RNG seed"); },
     runLayers},
    {"unit_tree", "E3",
     "Theorem 5.3: distributed (7+eps)-approximation for unit-height "
     "tree-networks",
     "'vs OPT' (when exact) and 'vs dual UB' ratios <= certified bound "
     "7/(1-eps) on every row, typically ~1-2x; algorithm beats or matches "
     "greedy on most rows",
     false, seedsAndEpsilonFlags, runUnitTree},
    {"rounds", "E4",
     "Theorem 5.3 round bound O(T_MIS log n log(1/eps) log(pmax/pmin)); "
     "Lemma 5.1: steps per stage <= O(log(pmax/pmin))",
     "epochs grow ~ log n in sweep 1 and stay flat elsewhere; stages/epoch "
     "grow ~ log(1/eps) in sweep 2; max steps/stage grows ~ log(pmax/pmin) "
     "in sweep 3 and stays small elsewhere",
     false, [](CliFlags& flags) { flags.intFlag("seed", 21, "RNG seed"); },
     runRounds},
    {"arb_tree", "E5",
     "Theorem 6.3: (80+eps)-approximation for arbitrary heights via wide "
     "(7+eps) + narrow (73+eps, Lemma 6.2) with per-network combine; "
     "narrow stage count scales with 1/hmin",
     "'vs OPT'/'vs dual UB' <= certified 80/(1-eps) everywhere (typically "
     "~1-3x); 'narrow stages' roughly doubles when hmin halves",
     false, seedsFlag, runArbTree},
    {"line_unit", "E6",
     "Theorem 7.1: (4+eps)-approximation for unit-height lines+windows; "
     "beats the Panconesi-Sozio (20+eps) baseline — the paper's factor-5 "
     "improvement claim",
     "'ours vs UB' <= 4/(1-eps) on every row; ours' certified bound 5x "
     "better than PS; measured profits: ours >= PS on most rows",
     false, seedsAndEpsilonFlags, runLineUnit},
    {"line_arb", "E7",
     "Theorem 7.2: (23+eps)-approximation for arbitrary-height "
     "lines+windows (wide 4+eps + narrow 19+eps)",
     "'ours vs UB' <= 23/(1-eps) everywhere (typically ~1-4x); ours' "
     "certified bound ~5x better than the threshold baseline; measured "
     "profit >= baseline on most rows",
     false, seedsFlag, runLineArb},
    {"sequential", "E8",
     "Appendix A: sequential two-phase algorithm with Delta = 2, lambda = 1 "
     "is a 3-approximation (2 for r = 1); round complexity can be as high "
     "as the number of instances",
     "'vs OPT' <= 3 (r > 1) / <= 2 (r = 1) on every exact row; iterations "
     "grow linearly with instances (contrast with E4's polylog rounds); "
     "sequential profit usually >= distributed profit (lambda = 1 vs 1-eps)",
     false, seedsFlag, runSequential},
    {"mis", "E9",
     "Luby's randomized MIS finishes in O(log N) rounds w.h.p. [14]; the "
     "paper's budgets assume T_MIS = O(log N)",
     "'rounds/lgN' stays roughly constant (~0.5-1.5) as N grows 64x; max "
     "rounds well under the protocol's 4*lg N + 8 budget",
     false,
     [](CliFlags& flags) { flags.intFlag("seeds", 8, "MIS seeds per graph"); },
     runMis},
    {"ablation", "E10",
     "ablations: staged-vs-threshold schedule (paper contribution 2) and "
     "ideal-vs-balancing-vs-root-fixing decomposition (contribution 1)",
     "(a) staged lambda ~0.9 vs threshold ~0.196 -> ~4.6x tighter "
     "certificate at equal Delta; (b) ideal keeps Delta <= 6 with few "
     "epochs; balancing inflates Delta; root-fixing keeps Delta small but "
     "explodes the epoch count (the depth/theta trade-off of §4.2)",
     false,
     [](CliFlags& flags) {
       flags.intFlag("n", 96, "vertices per tree")
           .intFlag("seeds", 3, "instances per variant");
     },
     runAblation},
    {"dist", "E11",
     "§5 distributed implementation: O(M) messages, round structure "
     "(2*T_MIS+1 per step + 1 per tuple for phase 2), local dual views "
     "stay consistent, output identical to the centralized engine",
     "'max msg' <= 2 units of M; 'consistent' and 'matches central' all "
     "'yes'; busy rounds a small fraction of scheduled rounds",
     true,
     [](CliFlags& flags) {
       flags.intFlag("seed", 91, "base RNG seed")
           .stringFlag("json", "BENCH_dist.json",
                       "machine-readable report path ('' disables)");
     },
     runDist},
    {"async", "E12",
     "the unchanged §5 protocol over an async lossy wide-area wire "
     "(heavy-tail latency, 5% drops, ack/retransmission, locality "
     "sharding) is bit-identical to the round-synchronous run",
     "'consistent' and 'matches sync' all 'yes'; transmissions < messages "
     "under sharding (local chatter stays off the wire); retransmissions "
     "and drops > 0 at 5% loss",
     true,
     [](CliFlags& flags) {
       flags.intFlag("seed", 17, "base RNG seed")
           .intFlag("seeds", 2, "seeds per configuration")
           .stringFlag("json", "BENCH_async.json",
                       "machine-readable report path ('' disables)");
     },
     runAsync},
    {"improver", "E13 (extension)",
     "local search (add + swap to fixed point) on top of phase-2 greedy; "
     "guarantees carry over since profit never decreases",
     "'+LS' >= base profit on every row; residual gap to the dual UB "
     "shrinks; improvement is largest for the weakest starting point "
     "(greedy)",
     false,
     [](CliFlags& flags) {
       flags.intFlag("seeds", 3, "instances per configuration");
     },
     runImprover},
};

/// The value of --experiment (`--experiment ID` or `--experiment=ID`),
/// read before parsing because it decides which other flags exist.
std::string_view experimentArg(int argc, char** argv) {
  constexpr std::string_view kFlag = "--experiment";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == kFlag && i + 1 < argc) return argv[i + 1];
    if (arg.starts_with(kFlag) && arg.substr(kFlag.size()).starts_with('=')) {
      return arg.substr(kFlag.size() + 1);
    }
  }
  return {};
}

const Experiment& findExperiment(std::string_view id) {
  std::string ids;
  for (const Experiment& experiment : kExperiments) {
    if (experiment.id == id) return experiment;
    ids += " ";
    ids += experiment.id;
  }
  throw CheckError("--experiment must be one of:" + ids + " (got '" +
                   std::string(id) + "')");
}

}  // namespace

int main(int argc, char** argv) {
  const Experiment& experiment = findExperiment(experimentArg(argc, argv));
  CliFlags flags;
  flags.stringFlag("experiment", "", "which paper experiment to run");
  experiment.addFlags(flags);
  bench::Telemetry::addFlags(flags);
  if (!flags.parse(argc, argv)) return 0;
  bench::Telemetry telemetry(flags);

  bench::banner(std::string(experiment.label), std::string(experiment.claim),
                std::string(experiment.expectation));
  const bool held = experiment.run(flags, telemetry);
  if (!experiment.instrumented && telemetry.printMetrics()) {
    std::cout << MetricsRegistry().describe();
  }
  telemetry.finish();
  return held ? 0 : 1;
}
