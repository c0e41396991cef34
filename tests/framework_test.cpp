#include <gtest/gtest.h>

#include <cmath>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"

namespace treesched {
namespace {

struct Ctx {
  TreeProblem problem;
  InstanceUniverse universe;
  Layering layering;
};

Ctx makeSetup(std::uint64_t seed, std::int32_t n, std::int32_t m,
                std::int32_t r, HeightMode heights = HeightMode::Unit) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = n;
  cfg.numNetworks = r;
  cfg.demands.numDemands = m;
  cfg.demands.heights = heights;
  cfg.demands.hmin = 0.2;
  cfg.demands.profitMax = 16.0;
  cfg.demands.accessProbability = 0.8;
  TreeProblem problem = makeTreeScenario(cfg);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  Layering layering = buildTreeLayering(problem, universe);
  return {std::move(problem), std::move(universe), std::move(layering)};
}

TEST(TwoPhase, SolutionIsFeasible) {
  Ctx s = makeSetup(1, 32, 40, 3);
  FrameworkConfig cfg;
  const TwoPhaseResult result = runTwoPhase(s.universe, s.layering, cfg);
  requireFeasible(s.universe, result.solution);
  EXPECT_GT(result.profit, 0);
}

TEST(TwoPhase, LambdaTargetAchieved) {
  Ctx s = makeSetup(2, 32, 50, 2);
  FrameworkConfig cfg;
  cfg.epsilon = 0.2;
  const TwoPhaseResult result = runTwoPhase(s.universe, s.layering, cfg);
  EXPECT_GE(result.stats.lambdaMeasured,
            result.stats.lambdaTarget - 1e-9)
      << "all instances must be (1-eps)-satisfied after phase 1";
  EXPECT_DOUBLE_EQ(result.stats.lambdaTarget, 0.8);
}

TEST(TwoPhase, Lemma31DualSolutionInequality) {
  // val(alpha, beta) <= (Delta + 1) * p(S) — the core of Lemma 3.1.
  Ctx s = makeSetup(3, 40, 60, 2);
  FrameworkConfig cfg;
  const TwoPhaseResult result = runTwoPhase(s.universe, s.layering, cfg);
  EXPECT_LE(result.dualObjective,
            (result.stats.delta + 1.0) * result.profit + 1e-6);
}

TEST(TwoPhase, DualUpperBoundDominatesSolution) {
  Ctx s = makeSetup(4, 32, 30, 2);
  FrameworkConfig cfg;
  const TwoPhaseResult result = runTwoPhase(s.universe, s.layering, cfg);
  EXPECT_GE(result.dualUpperBound, result.profit - 1e-9);
}

TEST(TwoPhase, DeterministicForSeed) {
  Ctx s1 = makeSetup(5, 24, 35, 2);
  Ctx s2 = makeSetup(5, 24, 35, 2);
  FrameworkConfig cfg;
  cfg.seed = 42;
  const TwoPhaseResult a = runTwoPhase(s1.universe, s1.layering, cfg);
  const TwoPhaseResult b = runTwoPhase(s2.universe, s2.layering, cfg);
  EXPECT_EQ(a.solution.instances, b.solution.instances);
  EXPECT_EQ(a.stack, b.stack);
  EXPECT_DOUBLE_EQ(a.profit, b.profit);
}

TEST(TwoPhase, StackEntriesAreIndependentSets) {
  Ctx s = makeSetup(6, 24, 40, 2);
  FrameworkConfig cfg;
  const TwoPhaseResult result = runTwoPhase(s.universe, s.layering, cfg);
  for (const auto& entry : result.stack) {
    for (std::size_t i = 0; i < entry.size(); ++i) {
      for (std::size_t j = i + 1; j < entry.size(); ++j) {
        EXPECT_FALSE(s.universe.conflicting(entry[i], entry[j]));
      }
    }
  }
}

TEST(TwoPhase, EverySolutionInstanceWasRaised) {
  Ctx s = makeSetup(7, 24, 30, 2);
  FrameworkConfig cfg;
  const TwoPhaseResult result = runTwoPhase(s.universe, s.layering, cfg);
  std::vector<bool> raised(static_cast<std::size_t>(s.universe.numInstances()),
                           false);
  for (const auto& entry : result.stack) {
    for (const InstanceId i : entry) {
      raised[static_cast<std::size_t>(i)] = true;
    }
  }
  for (const InstanceId i : result.solution.instances) {
    EXPECT_TRUE(raised[static_cast<std::size_t>(i)]);
  }
}

TEST(TwoPhase, ThresholdPolicyLambda) {
  Ctx s = makeSetup(8, 24, 30, 2);
  FrameworkConfig cfg;
  cfg.schedule = SchedulePolicy::Threshold;
  cfg.epsilon = 0.5;
  const TwoPhaseResult result = runTwoPhase(s.universe, s.layering, cfg);
  EXPECT_NEAR(result.stats.lambdaTarget, 1.0 / 5.5, 1e-12);
  EXPECT_GE(result.stats.lambdaMeasured, result.stats.lambdaTarget - 1e-9);
  requireFeasible(s.universe, result.solution);
}

TEST(TwoPhase, StagedBeatsThresholdOnLambda) {
  Ctx s = makeSetup(9, 32, 50, 2);
  FrameworkConfig staged;
  staged.epsilon = 0.1;
  FrameworkConfig threshold;
  threshold.schedule = SchedulePolicy::Threshold;
  threshold.epsilon = 0.1;
  const TwoPhaseResult a = runTwoPhase(s.universe, s.layering, staged);
  const TwoPhaseResult b = runTwoPhase(s.universe, s.layering, threshold);
  EXPECT_GT(a.stats.lambdaMeasured, b.stats.lambdaTarget);
  // The paper's headline: staged lambda ~ 1-eps vs threshold ~ 1/(5+eps),
  // a factor (1-eps)(5+eps) -> 5 as eps -> 0 (4.59 at eps = 0.1).
  EXPECT_GE(a.stats.lambdaTarget, 4.5 * b.stats.lambdaTarget);
}

TEST(TwoPhase, NarrowRuleFeasibleAndBounded) {
  Ctx s = makeSetup(10, 24, 40, 2, HeightMode::Narrow);
  FrameworkConfig cfg;
  cfg.rule = RaiseRule::Narrow;
  cfg.hmin = 0.2;
  const TwoPhaseResult result = runTwoPhase(s.universe, s.layering, cfg);
  requireFeasible(s.universe, result.solution);
  EXPECT_GE(result.stats.lambdaMeasured, result.stats.lambdaTarget - 1e-9);
  // Lemma 6.1: val <= (2*Delta^2 + 1) * p(S).
  const double d = result.stats.delta;
  EXPECT_LE(result.dualObjective, (2 * d * d + 1) * result.profit + 1e-6);
}

TEST(TwoPhase, EmptyUniverse) {
  TreeProblem problem;
  problem.numVertices = 4;
  problem.networks.push_back(makePathTree(0, 4));
  // One demand so the universe is non-trivially constructed, then none.
  problem.demands = {};
  problem.access = {};
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  Layering layering;
  layering.numGroups = 0;
  FrameworkConfig cfg;
  const TwoPhaseResult result = runTwoPhase(universe, layering, cfg);
  EXPECT_EQ(result.profit, 0);
  EXPECT_TRUE(result.solution.instances.empty());
}

TEST(TwoPhase, FixedScheduleMatchesWhileLoopSolution) {
  // With a generous fixed schedule the outcome must be identical to the
  // while-loop schedule: the same MIS sequence is produced because empty
  // steps contribute nothing and seeds are keyed by (epoch, stage, step).
  Ctx s1 = makeSetup(11, 24, 30, 2);
  Ctx s2 = makeSetup(11, 24, 30, 2);
  FrameworkConfig loop;
  loop.seed = 3;
  FrameworkConfig fixed;
  fixed.seed = 3;
  fixed.fixedSchedule = true;
  fixed.stepsPerStage = 64;
  const TwoPhaseResult a = runTwoPhase(s1.universe, s1.layering, loop);
  const TwoPhaseResult b = runTwoPhase(s2.universe, s2.layering, fixed);
  EXPECT_EQ(a.solution.instances, b.solution.instances);
  EXPECT_DOUBLE_EQ(a.profit, b.profit);
}

TEST(TwoPhase, StepsPerStageBoundedByProfitSpread) {
  // Lemma 5.1: steps per stage = O(log(pmax/pmin)).
  Ctx s = makeSetup(12, 32, 60, 2);
  FrameworkConfig cfg;
  const TwoPhaseResult result = runTwoPhase(s.universe, s.layering, cfg);
  const double spread = s.universe.profitMax() / s.universe.profitMin();
  EXPECT_LE(result.stats.maxStepsInStage,
            4 + 2 * static_cast<std::int32_t>(std::ceil(std::log2(spread))));
}

TEST(ApproximationBound, Formulas) {
  EXPECT_DOUBLE_EQ(approximationBound(RaiseRule::Unit, 6, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(approximationBound(RaiseRule::Unit, 3, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(approximationBound(RaiseRule::Unit, 2, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(approximationBound(RaiseRule::Narrow, 6, 1.0), 73.0);
  EXPECT_DOUBLE_EQ(approximationBound(RaiseRule::Narrow, 3, 1.0), 19.0);
  // (20+eps) for the PS baseline: (3+1)/(1/(5+eps)).
  EXPECT_NEAR(approximationBound(RaiseRule::Unit, 3, 1.0 / 5.1), 20.4, 1e-9);
}

TEST(StagePlan, PaperXiValues) {
  // §5: Delta = 6 -> xi = 14/15; §7: Delta = 3 -> xi = 8/9.
  const StagePlan tree =
      makeStagePlan(SchedulePolicy::Staged, RaiseRule::Unit, 0.1, 6, 1.0);
  EXPECT_NEAR(tree.xi, 14.0 / 15.0, 1e-12);
  const StagePlan line =
      makeStagePlan(SchedulePolicy::Staged, RaiseRule::Unit, 0.1, 3, 1.0);
  EXPECT_NEAR(line.xi, 8.0 / 9.0, 1e-12);
}

TEST(StagePlan, StageCountCoversEpsilon) {
  const StagePlan plan =
      makeStagePlan(SchedulePolicy::Staged, RaiseRule::Unit, 0.05, 6, 1.0);
  EXPECT_LE(std::pow(plan.xi, plan.numStages), 0.05 + 1e-12);
  EXPECT_GT(std::pow(plan.xi, plan.numStages - 1), 0.05);
}

TEST(StagePlan, NarrowBaseScalesWithHmin) {
  const StagePlan a =
      makeStagePlan(SchedulePolicy::Staged, RaiseRule::Narrow, 0.1, 6, 0.5);
  const StagePlan b =
      makeStagePlan(SchedulePolicy::Staged, RaiseRule::Narrow, 0.1, 6, 0.1);
  // Smaller hmin -> xi closer to 1 -> more stages (the 1/hmin factor in
  // Theorem 6.3's round bound).
  EXPECT_GT(b.numStages, a.numStages);
  EXPECT_NEAR(a.xi, 73.0 / 73.5, 1e-12);
}

TEST(StagePlan, ThresholdSingleStage) {
  const StagePlan plan =
      makeStagePlan(SchedulePolicy::Threshold, RaiseRule::Unit, 0.25, 3, 1.0);
  EXPECT_EQ(plan.numStages, 1);
  EXPECT_NEAR(plan.lambdaTarget, 1.0 / 5.25, 1e-12);
  EXPECT_NEAR(plan.stageTarget(1), 1.0 / 5.25, 1e-12);
}

}  // namespace
}  // namespace treesched
