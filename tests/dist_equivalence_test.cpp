// Centralized/distributed bit-equivalence sweep (acceptance gate E11).
//
// For every seed x {line, tree} the distributed protocol under the fixed
// global schedule must select the same instances, report the same profit
// and duals, and end with every processor's local view consistent with the
// centralized `runTwoPhase` ground truth. The sweep also checks the round
// accounting against Lemma 5.1: the auto-derived steps-per-stage is
// O(log(pmax/pmin)) and the total round count follows the schedule shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "framework/schedule.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"

namespace treesched {
namespace {

constexpr std::uint64_t kSeeds[] = {101, 202, 303, 404, 505};

TreeProblem sweepTree(std::uint64_t seed) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = 16 + static_cast<std::int32_t>(seed % 17);
  cfg.numNetworks = 2 + static_cast<std::int32_t>(seed % 3);
  cfg.demands.numDemands = 14 + static_cast<std::int32_t>(seed % 11);
  cfg.demands.accessProbability = 0.7;
  cfg.demands.profitMax = 12.0;
  return makeTreeScenario(cfg);
}

LineProblem sweepLine(std::uint64_t seed) {
  LineScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numSlots = 32 + static_cast<std::int32_t>(seed % 33);
  cfg.numResources = 2 + static_cast<std::int32_t>(seed % 2);
  cfg.demands.numDemands = 12 + static_cast<std::int32_t>(seed % 13);
  cfg.demands.windowSlack = 0.5;
  cfg.demands.processingMax = 6;
  cfg.demands.accessProbability = 0.8;
  return makeLineScenario(cfg);
}

void expectBitIdentical(const DistributedResult& dist,
                        const TwoPhaseResult& central) {
  std::vector<InstanceId> centralSorted = central.solution.instances;
  std::sort(centralSorted.begin(), centralSorted.end());
  EXPECT_EQ(dist.solution.instances, centralSorted)
      << "distributed and centralized runs must select identical instances";
  // Bit-identity is the contract (protocol.hpp), so exact comparison --
  // EXPECT_DOUBLE_EQ's 4-ULP tolerance would mask accumulation reorders.
  EXPECT_EQ(dist.profit, central.profit);
  EXPECT_EQ(dist.dualObjective, central.dualObjective);
  EXPECT_EQ(dist.lambdaMeasured, central.stats.lambdaMeasured);
  EXPECT_TRUE(dist.localViewsConsistent)
      << "every processor's local dual view must agree with ground truth";
}

class DistEquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistEquivalenceSweep, TreeBitIdentical) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const Layering layering = buildTreeLayering(problem, universe);

  DistributedOptions dopt;
  dopt.seed = seed * 7 + 1;
  dopt.misRoundBudget = 32;
  dopt.stepsPerStage = 10;
  const DistributedResult dist = runDistributedUnitTree(problem, dopt);

  FrameworkConfig copt;
  copt.seed = dopt.seed;
  copt.misRoundBudget = dopt.misRoundBudget;
  copt.fixedSchedule = true;
  copt.stepsPerStage = dopt.stepsPerStage;
  const TwoPhaseResult central = runTwoPhase(universe, layering, copt);

  expectBitIdentical(dist, central);
}

TEST_P(DistEquivalenceSweep, LineBitIdentical) {
  const std::uint64_t seed = GetParam();
  const LineProblem problem = sweepLine(seed);
  InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  const Layering layering = buildLineLayering(problem, universe);

  DistributedOptions dopt;
  dopt.seed = seed * 7 + 1;
  dopt.misRoundBudget = 32;
  dopt.stepsPerStage = 10;
  const DistributedResult dist = runDistributedUnitLine(problem, dopt);

  FrameworkConfig copt;
  copt.seed = dopt.seed;
  copt.misRoundBudget = dopt.misRoundBudget;
  copt.fixedSchedule = true;
  copt.stepsPerStage = dopt.stepsPerStage;
  const TwoPhaseResult central = runTwoPhase(universe, layering, copt);

  expectBitIdentical(dist, central);
}

// Lemma 5.1: each stage needs only O(log(pmax/pmin)) maximal-MIS steps, so
// the auto-derived fixed schedule must spend exactly
// numGroups * numStages * stepsPerStage tuples with
// stepsPerStage <= 4 + 2*ceil(log2(max(2, pmax/pmin))).
TEST_P(DistEquivalenceSweep, TreeRoundsWithinLemma51StageBound) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const Layering layering = buildTreeLayering(problem, universe);

  DistributedOptions opt;
  opt.seed = seed;
  const std::int32_t budget = 16;
  opt.misRoundBudget = budget;  // stepsPerStage left at 0: auto-derived
  const DistributedResult dist = runDistributedUnitTree(problem, opt);

  const StagePlan plan = makeStagePlan(
      SchedulePolicy::Staged, RaiseRule::Unit, opt.epsilon,
      std::max<std::int32_t>(1, layering.maxCriticalSize), opt.hmin);
  // O(log) stage bound: the shared derivation itself must stay
  // logarithmic in the profit spread...
  const double spread =
      std::max(2.0, universe.profitMax() / universe.profitMin());
  const std::int32_t stepsPerStage =
      fixedScheduleStepsPerStage(universe.profitMax(), universe.profitMin());
  EXPECT_LE(stepsPerStage,
            4 + 2 * static_cast<std::int32_t>(std::ceil(std::log2(spread))));
  // ...and the protocol must spend exactly numGroups * numStages of it.
  EXPECT_EQ(dist.scheduledSteps,
            static_cast<std::int64_t>(layering.numGroups) *
                plan.numStages * stepsPerStage);
  EXPECT_GT(dist.scheduledSteps, 0);
  // Schedule shape: phase 1 spends 2B+1 rounds per tuple, phase 2 one.
  EXPECT_EQ(dist.network.rounds,
            dist.scheduledSteps * (2 * budget + 1) + dist.scheduledSteps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistEquivalenceSweep,
                         ::testing::ValuesIn(kSeeds),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace treesched
