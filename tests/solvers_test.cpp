#include <gtest/gtest.h>

#include "algo/line_solvers.hpp"
#include "algo/sequential_tree.hpp"
#include "algo/tree_solvers.hpp"
#include "core/universe.hpp"
#include "exact/brute_force.hpp"
#include "gen/scenario.hpp"
#include "util/check.hpp"

namespace treesched {
namespace {

TreeProblem treeCase(std::uint64_t seed, std::int32_t n, std::int32_t m,
                     std::int32_t r, HeightMode heights = HeightMode::Unit) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = n;
  cfg.numNetworks = r;
  cfg.demands.numDemands = m;
  cfg.demands.heights = heights;
  cfg.demands.hmin = 0.15;
  cfg.demands.profitMax = 12.0;
  cfg.demands.accessProbability = 0.8;
  return makeTreeScenario(cfg);
}

LineProblem lineCase(std::uint64_t seed, std::int32_t slots, std::int32_t m,
                     std::int32_t r, double slack,
                     HeightMode heights = HeightMode::Unit) {
  LineScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numSlots = slots;
  cfg.numResources = r;
  cfg.demands.numDemands = m;
  cfg.demands.heights = heights;
  cfg.demands.hmin = 0.15;
  cfg.demands.windowSlack = slack;
  cfg.demands.processingMax = std::max<std::int32_t>(2, slots / 6);
  cfg.demands.accessProbability = 0.8;
  return makeLineScenario(cfg);
}

// ---- solveUnitTree (Theorem 5.3) ----

TEST(SolveUnitTree, FeasibleNonTrivial) {
  const TreeProblem problem = treeCase(1, 32, 40, 3);
  const TreeSolveResult result = solveUnitTree(problem);
  EXPECT_EQ(checkAssignments(problem, result.assignments), "");
  EXPECT_GT(result.profit, 0);
  EXPECT_NEAR(result.profit, assignmentProfit(problem, result.assignments),
              1e-9);
}

TEST(SolveUnitTree, CertifiedBoundAtMostSevenPlusEps) {
  const TreeProblem problem = treeCase(2, 24, 20, 2);
  SolverOptions options;
  options.epsilon = 0.1;
  const TreeSolveResult result = solveUnitTree(problem, options);
  // The per-run certificate uses the *measured* Delta <= 6, so it can only
  // be tighter than Theorem 5.3's (7+eps) = 7/(1-eps).
  EXPECT_LE(result.certifiedBound, 7.0 / 0.9 + 1e-9);
  EXPECT_NEAR(result.certifiedBound, (result.stats.delta + 1.0) / 0.9, 1e-9);
  EXPECT_LE(result.stats.delta, 6);
}

TEST(SolveUnitTree, WithinBoundOfExactOptimum) {
  // The theorem guarantees p(S) >= OPT / (7+eps); verify against brute
  // force on many small instances.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const TreeProblem problem = treeCase(seed, 12, 9, 2);
    const TreeSolveResult result = solveUnitTree(problem);
    InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
    const ExactResult exact = bruteForceExact(u);
    ASSERT_TRUE(exact.provedOptimal);
    EXPECT_GE(result.profit * result.certifiedBound, exact.profit - 1e-6)
        << "approximation bound violated at seed " << seed;
    EXPECT_LE(result.profit, exact.profit + 1e-6) << "beat the optimum?!";
    EXPECT_GE(result.dualUpperBound, exact.profit - 1e-6)
        << "dual certificate must dominate OPT at seed " << seed;
  }
}

TEST(SolveUnitTree, RejectsNonUnitHeights) {
  const TreeProblem problem = treeCase(3, 16, 8, 2, HeightMode::Mixed);
  EXPECT_THROW(solveUnitTree(problem), CheckError);
}

TEST(SolveUnitTree, DeterministicForSeed) {
  const TreeProblem problem = treeCase(4, 24, 30, 2);
  SolverOptions options;
  options.seed = 77;
  const TreeSolveResult a = solveUnitTree(problem, options);
  const TreeSolveResult b = solveUnitTree(problem, options);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].demand, b.assignments[i].demand);
    EXPECT_EQ(a.assignments[i].network, b.assignments[i].network);
  }
}

TEST(SolveUnitTree, SingleNetworkSingleDemand) {
  TreeProblem problem;
  problem.numVertices = 4;
  problem.networks.push_back(makePathTree(0, 4));
  Demand d;
  d.id = 0;
  d.u = 0;
  d.v = 3;
  d.profit = 2.0;
  problem.demands = {d};
  problem.access = {{0}};
  const TreeSolveResult result = solveUnitTree(problem);
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_DOUBLE_EQ(result.profit, 2.0);
}

// ---- solveArbitraryTree (Theorem 6.3) ----

TEST(SolveArbitraryTree, FeasibleOnMixedHeights) {
  const TreeProblem problem = treeCase(5, 24, 40, 2, HeightMode::Mixed);
  const ArbitraryTreeResult result = solveArbitraryTree(problem);
  EXPECT_EQ(checkAssignments(problem, result.assignments), "");
  EXPECT_GT(result.profit, 0);
}

TEST(SolveArbitraryTree, CombineDominatesBothParts) {
  const TreeProblem problem = treeCase(6, 24, 50, 3, HeightMode::Mixed);
  const ArbitraryTreeResult result = solveArbitraryTree(problem);
  EXPECT_GE(result.profit, std::max(result.wideProfit, result.narrowProfit) -
                               1e-9)
      << "per-network combine must not lose to either sub-solution";
}

TEST(SolveArbitraryTree, WithinBoundOfExactOptimum) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TreeProblem problem =
        treeCase(seed + 50, 10, 8, 2, HeightMode::Mixed);
    const ArbitraryTreeResult result = solveArbitraryTree(problem);
    InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
    const ExactResult exact = bruteForceExact(u);
    ASSERT_TRUE(exact.provedOptimal);
    EXPECT_GE(result.profit * result.certifiedBound, exact.profit - 1e-6);
    EXPECT_LE(result.profit, exact.profit + 1e-6);
    EXPECT_GE(result.dualUpperBound, exact.profit - 1e-6);
  }
}

TEST(SolveArbitraryTree, PureNarrowInput) {
  const TreeProblem problem = treeCase(7, 16, 20, 2, HeightMode::Narrow);
  const ArbitraryTreeResult result = solveArbitraryTree(problem);
  EXPECT_FALSE(result.wideStats.has_value());
  ASSERT_TRUE(result.narrowStats.has_value());
  EXPECT_EQ(checkAssignments(problem, result.assignments), "");
}

TEST(SolveArbitraryTree, PureWideInputMatchesUnitAlgorithm) {
  const TreeProblem problem = treeCase(8, 16, 20, 2, HeightMode::Wide);
  const ArbitraryTreeResult result = solveArbitraryTree(problem);
  EXPECT_FALSE(result.narrowStats.has_value());
  ASSERT_TRUE(result.wideStats.has_value());
  EXPECT_EQ(checkAssignments(problem, result.assignments), "");
}

// ---- solveSequentialTree (Appendix A) ----

TEST(SequentialTree, FeasibleAndBounded) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TreeProblem problem = treeCase(seed + 100, 12, 10, 2);
    const SequentialTreeResult result = solveSequentialTree(problem);
    EXPECT_EQ(checkAssignments(problem, result.assignments), "");
    EXPECT_LE(result.delta, 2) << "Appendix A: Delta = 2";
    InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
    const ExactResult exact = bruteForceExact(u);
    ASSERT_TRUE(exact.provedOptimal);
    EXPECT_GE(result.profit * 3.0, exact.profit - 1e-6)
        << "3-approximation violated at seed " << seed;
    EXPECT_GE(result.dualUpperBound, exact.profit - 1e-6);
  }
}

TEST(SequentialTree, SingleNetworkTwoApprox) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TreeProblem problem = treeCase(seed + 200, 14, 10, 1);
    const SequentialTreeResult result = solveSequentialTree(problem);
    EXPECT_DOUBLE_EQ(result.certifiedBound, 2.0);
    InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
    const ExactResult exact = bruteForceExact(u);
    ASSERT_TRUE(exact.provedOptimal);
    EXPECT_GE(result.profit * 2.0, exact.profit - 1e-6)
        << "2-approximation violated at seed " << seed;
  }
}

TEST(SequentialTree, IterationsEqualRaisedInstances) {
  const TreeProblem problem = treeCase(9, 20, 15, 2);
  const SequentialTreeResult result = solveSequentialTree(problem);
  // Every instance is raised at most once; with full access, exactly the
  // unsatisfied ones. Iterations must be <= total instances.
  InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  EXPECT_LE(result.iterations, u.numInstances());
  EXPECT_GT(result.iterations, 0);
}

// ---- Line solvers (Theorems 7.1 / 7.2) ----

TEST(SolveUnitLine, FeasibleWithWindows) {
  const LineProblem problem = lineCase(10, 64, 30, 2, 1.0);
  const LineSolveResult result = solveUnitLine(problem);
  EXPECT_EQ(checkAssignments(problem, result.assignments), "");
  EXPECT_GT(result.profit, 0);
  EXPECT_LE(result.stats.delta, 3);
}

TEST(SolveUnitLine, CertifiedBoundIsFourPlusEps) {
  const LineProblem problem = lineCase(11, 48, 20, 2, 0.5);
  SolverOptions options;
  options.epsilon = 0.2;
  const LineSolveResult result = solveUnitLine(problem, options);
  EXPECT_NEAR(result.certifiedBound, 4.0 / 0.8, 1e-9);
}

TEST(SolveUnitLine, WithinBoundOfExactOptimum) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const LineProblem problem = lineCase(seed + 300, 24, 8, 2, 0.5);
    const LineSolveResult result = solveUnitLine(problem);
    InstanceUniverse u = InstanceUniverse::fromLineProblem(problem);
    const ExactResult exact = bruteForceExact(u);
    ASSERT_TRUE(exact.provedOptimal);
    EXPECT_GE(result.profit * result.certifiedBound, exact.profit - 1e-6);
    EXPECT_LE(result.profit, exact.profit + 1e-6);
  }
}

TEST(SolveUnitLine, PanconesiSozioBaselineFeasible) {
  const LineProblem problem = lineCase(12, 64, 30, 2, 1.0);
  const LineSolveResult result = solvePanconesiSozioUnitLine(problem);
  EXPECT_EQ(checkAssignments(problem, result.assignments), "");
  // (20+eps) worst case: (3+1)*(5+eps).
  EXPECT_NEAR(result.certifiedBound, 4.0 * 5.1, 1e-9);
}

TEST(SolveUnitLine, StagedCertifiedBoundBeatsBaselineByFactorFive) {
  const LineProblem problem = lineCase(13, 48, 20, 2, 0.5);
  SolverOptions options;
  options.epsilon = 0.1;
  const LineSolveResult ours = solveUnitLine(problem, options);
  const LineSolveResult ps = solvePanconesiSozioUnitLine(problem, options);
  EXPECT_GT(ps.certifiedBound / ours.certifiedBound, 4.5)
      << "the paper's improvement factor (~5x on lambda) must show";
}

TEST(SolveArbitraryLine, FeasibleOnMixedHeights) {
  const LineProblem problem = lineCase(14, 48, 30, 2, 0.5, HeightMode::Mixed);
  const ArbitraryLineResult result = solveArbitraryLine(problem);
  EXPECT_EQ(checkAssignments(problem, result.assignments), "");
  EXPECT_GE(result.profit, std::max(result.wideProfit, result.narrowProfit) -
                               1e-9);
}

TEST(SolveArbitraryLine, WithinBoundOfExactOptimum) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const LineProblem problem =
        lineCase(seed + 400, 20, 7, 2, 0.5, HeightMode::Mixed);
    const ArbitraryLineResult result = solveArbitraryLine(problem);
    InstanceUniverse u = InstanceUniverse::fromLineProblem(problem);
    const ExactResult exact = bruteForceExact(u);
    ASSERT_TRUE(exact.provedOptimal);
    EXPECT_GE(result.profit * result.certifiedBound, exact.profit - 1e-6);
  }
}

TEST(SolveArbitraryLine, CertifiedBoundIsTwentyThreePlusEps) {
  const LineProblem problem = lineCase(15, 32, 10, 1, 0.0, HeightMode::Mixed);
  SolverOptions options;
  options.epsilon = 0.1;
  const ArbitraryLineResult result = solveArbitraryLine(problem, options);
  EXPECT_NEAR(result.certifiedBound, 23.0 / 0.9, 1e-9);
}

// ---- Arbitrary-height certificate on both shapes (Theorems 6.3 / 7.2) ----

TEST(SolveArbitrary, CertifiedBoundUsesShapeDeltaAndScheduleLambda) {
  TreeScenarioConfig cfg;
  cfg.seed = 31;
  cfg.numVertices = 16;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 14;
  cfg.demands.heights = HeightMode::Mixed;
  cfg.demands.hmin = 0.25;
  const TreeProblem tree = makeTreeScenario(cfg);
  const LineProblem line = lineCase(31, 32, 14, 2, 0.5, HeightMode::Mixed);
  for (const SchedulePolicy schedule :
       {SchedulePolicy::Staged, SchedulePolicy::Threshold}) {
    SolverOptions options;
    options.seed = 32;
    options.schedule = schedule;
    const double lambda = schedule == SchedulePolicy::Staged
                              ? 1.0 - options.epsilon
                              : 1.0 / (5.0 + options.epsilon);
    const auto bound = [lambda](std::int32_t delta) {
      return approximationBound(RaiseRule::Unit, delta, lambda) +
             approximationBound(RaiseRule::Narrow, delta, lambda);
    };
    const char* name =
        schedule == SchedulePolicy::Staged ? "staged" : "threshold";
    const ArbitraryTreeResult treeRun = solveArbitraryTree(tree, options);
    EXPECT_DOUBLE_EQ(treeRun.certifiedBound, bound(6)) << "tree, " << name;
    const ArbitraryLineResult lineRun = solveArbitraryLine(line, options);
    EXPECT_DOUBLE_EQ(lineRun.certifiedBound, bound(3)) << "line, " << name;
  }
}

// ---- Ablation hooks (E10) ----

TEST(Ablation, BalancingDecompositionStillSound) {
  const TreeProblem problem = treeCase(16, 24, 30, 2);
  SolverOptions options;
  options.decomposition = DecompositionKind::Balancing;
  const TreeSolveResult result = solveUnitTree(problem, options);
  EXPECT_EQ(checkAssignments(problem, result.assignments), "");
  // Delta can exceed 6 here — that is the point of the ablation.
  EXPECT_GE(result.stats.delta, 1);
}

TEST(Ablation, ThresholdOnTreesStillSound) {
  const TreeProblem problem = treeCase(17, 24, 30, 2);
  SolverOptions options;
  options.schedule = SchedulePolicy::Threshold;
  const TreeSolveResult result = solveUnitTree(problem, options);
  EXPECT_EQ(checkAssignments(problem, result.assignments), "");
  EXPECT_NEAR(result.stats.lambdaTarget, 1.0 / 5.1, 1e-9);
}

}  // namespace
}  // namespace treesched
