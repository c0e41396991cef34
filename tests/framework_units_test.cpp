// Focused unit tests for the framework primitives: dual state, raise
// rules, the LHS tracker — the arithmetic Lemmas 3.1/6.1 lean on — and
// the stage schedule's satisfaction test.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/tolerances.hpp"
#include "core/universe.hpp"
#include "framework/lhs_tracker.hpp"
#include "framework/raise_policy.hpp"
#include "framework/schedule.hpp"
#include "gen/scenario.hpp"
#include "util/check.hpp"

namespace treesched {
namespace {

InstanceUniverse tinyUniverse() {
  TreeProblem problem;
  problem.numVertices = 4;
  problem.networks.push_back(makePathTree(0, 4));  // edges 0,1,2
  problem.networks.push_back(makeStarTree(1, 4));
  auto add = [&](VertexId u, VertexId v, double profit, double height) {
    Demand d;
    d.id = static_cast<DemandId>(problem.demands.size());
    d.u = u;
    d.v = v;
    d.profit = profit;
    d.height = height;
    problem.demands.push_back(d);
    problem.access.push_back({0, 1});
  };
  add(0, 3, 6.0, 1.0);
  add(1, 2, 4.0, 0.5);
  return InstanceUniverse::fromTreeProblem(problem);
}

TEST(DualState, StartsAtZeroAndAccumulates) {
  const InstanceUniverse u = tinyUniverse();
  DualState dual(u);
  EXPECT_DOUBLE_EQ(dual.objective(), 0.0);
  dual.raiseAlpha(0, 1.5);
  dual.raiseBeta(2, 0.5);
  dual.raiseBeta(2, 0.25);
  EXPECT_DOUBLE_EQ(dual.alpha(0), 1.5);
  EXPECT_DOUBLE_EQ(dual.beta(2), 0.75);
  EXPECT_DOUBLE_EQ(dual.objective(), 2.25);
}

TEST(RaisePolicy, UnitLhsSumsPathBetas) {
  const InstanceUniverse u = tinyUniverse();
  DualState dual(u);
  // Instance 0 = demand 0 on network 0 (path 0->3: edges 0,1,2).
  dual.raiseAlpha(0, 1.0);
  dual.raiseBeta(u.globalEdge(0, 0), 2.0);
  dual.raiseBeta(u.globalEdge(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(dualLhs(RaiseRule::Unit, u, dual, 0), 6.0);
}

TEST(RaisePolicy, NarrowLhsScalesBetaByHeight) {
  const InstanceUniverse u = tinyUniverse();
  DualState dual(u);
  // Instance 2 = demand 1 (h = 0.5) on network 0 (path 1->2: edge 1).
  dual.raiseAlpha(1, 1.0);
  dual.raiseBeta(u.globalEdge(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(dualLhs(RaiseRule::Narrow, u, dual, 2), 1.0 + 0.5 * 4.0);
}

TEST(RaisePolicy, UnitRaiseMakesConstraintTight) {
  const InstanceUniverse u = tinyUniverse();
  DualState dual(u);
  const GlobalEdgeId critical[] = {u.globalEdge(0, 0), u.globalEdge(0, 2)};
  const double slack = 6.0 - dualLhs(RaiseRule::Unit, u, dual, 0);
  const RaiseAmounts amounts = computeRaise(RaiseRule::Unit, u, 0, critical,
                                            slack);
  // delta = slack / (|pi| + 1) = 6/3 = 2; alpha and both betas rise by 2.
  EXPECT_DOUBLE_EQ(amounts.alphaIncrement, 2.0);
  EXPECT_DOUBLE_EQ(amounts.betaIncrement, 2.0);
  applyRaise(dual, u, 0, critical, amounts);
  EXPECT_DOUBLE_EQ(dualLhs(RaiseRule::Unit, u, dual, 0), 6.0);
}

TEST(RaisePolicy, NarrowRaiseMakesConstraintTight) {
  const InstanceUniverse u = tinyUniverse();
  DualState dual(u);
  // Instance 2: demand 1 (p = 4, h = 0.5), path = one edge.
  const GlobalEdgeId critical[] = {u.globalEdge(0, 1)};
  const RaiseAmounts amounts =
      computeRaise(RaiseRule::Narrow, u, 2, critical, 4.0);
  // delta = s / (1 + 2 h |pi|^2) = 4 / (1 + 1) = 2; beta += 2|pi| delta = 4.
  EXPECT_DOUBLE_EQ(amounts.alphaIncrement, 2.0);
  EXPECT_DOUBLE_EQ(amounts.betaIncrement, 4.0);
  applyRaise(dual, u, 2, critical, amounts);
  EXPECT_DOUBLE_EQ(dualLhs(RaiseRule::Narrow, u, dual, 2), 4.0);
}

TEST(RaisePolicy, NarrowRuleRejectsWideInstance) {
  const InstanceUniverse u = tinyUniverse();
  const GlobalEdgeId critical[] = {u.globalEdge(0, 0)};
  // Instance 0 has height 1.0 (wide).
  EXPECT_THROW(computeRaise(RaiseRule::Narrow, u, 0, critical, 1.0),
               CheckError);
}

TEST(RaisePolicy, RaiseRequiresPositiveSlack) {
  const InstanceUniverse u = tinyUniverse();
  const GlobalEdgeId critical[] = {u.globalEdge(0, 0)};
  EXPECT_THROW(computeRaise(RaiseRule::Unit, u, 0, critical, 0.0), CheckError);
  EXPECT_THROW(computeRaise(RaiseRule::Unit, u, 0, critical, -1.0), CheckError);
}

TEST(LhsTracker, MatchesDirectComputation) {
  TreeScenarioConfig cfg;
  cfg.seed = 3;
  cfg.numVertices = 16;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 12;
  cfg.demands.heights = HeightMode::Narrow;
  cfg.demands.hmin = 0.2;
  const TreeProblem problem = makeTreeScenario(cfg);
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);

  for (const RaiseRule rule : {RaiseRule::Unit, RaiseRule::Narrow}) {
    DualState dual(u);
    std::vector<double> lhs(static_cast<std::size_t>(u.numInstances()), 0.0);
    Rng rng(17);
    // Random raises, the incremental LHS must equal the from-scratch one.
    for (int step = 0; step < 40; ++step) {
      const auto d = static_cast<DemandId>(
          rng.nextBounded(static_cast<std::uint64_t>(u.numDemands())));
      const auto e = static_cast<GlobalEdgeId>(
          rng.nextBounded(static_cast<std::uint64_t>(u.numGlobalEdges())));
      const double byAlpha = rng.nextDouble(0.0, 2.0);
      const double byBeta = rng.nextDouble(0.0, 2.0);
      dual.raiseAlpha(d, byAlpha);
      applyAlphaToLhs(u, d, byAlpha, lhs);
      dual.raiseBeta(e, byBeta);
      applyBetaToLhs(u, rule, e, byBeta, lhs);
    }
    for (InstanceId i = 0; i < u.numInstances(); ++i) {
      const double incremental = lhs[static_cast<std::size_t>(i)];
      EXPECT_NEAR(incremental, dualLhs(rule, u, dual, i), 1e-9)
          << "instance " << i;
    }
  }
}

TEST(LhsTracker, OnRaiseAppliesAlphaThenEdges) {
  const InstanceUniverse u = tinyUniverse();
  LhsTracker tracker(u, RaiseRule::Unit);
  const GlobalEdgeId critical[] = {u.globalEdge(0, 0), u.globalEdge(0, 2)};
  RaiseAmounts amounts;
  amounts.alphaIncrement = 1.0;
  amounts.betaIncrement = 2.0;
  tracker.onRaise(0, critical, amounts);
  // Instance 0 (demand 0, path edges 0,1,2): alpha 1 + edges 0,2 -> 2+2.
  EXPECT_DOUBLE_EQ(tracker.lhs(0), 5.0);
  // Instance 1 (demand 0 on star): alpha only.
  EXPECT_DOUBLE_EQ(tracker.lhs(1), 1.0);
  // Instance 2 (demand 1 on path, edge 1): untouched.
  EXPECT_DOUBLE_EQ(tracker.lhs(2), 0.0);
}

/// The first stage after `stage` at which fallsShort holds, by scanning.
std::int32_t firstShortByScan(const std::vector<double>& targets,
                              std::int32_t stage, double lhs, double profit) {
  for (std::size_t j = static_cast<std::size_t>(stage); j < targets.size();
       ++j) {
    if (fallsShort(lhs, profit, targets[j])) {
      return static_cast<std::int32_t>(j) + 1;
    }
  }
  return static_cast<std::int32_t>(targets.size()) + 1;
}

TEST(StageSchedule, FirstShortStageMatchesAScanOfTheSharedPredicate) {
  for (const RaiseRule rule : {RaiseRule::Unit, RaiseRule::Narrow}) {
    const StagePlan plan =
        makeStagePlan(SchedulePolicy::Staged, rule, 0.1, 3, 0.5);
    const std::vector<double> targets = plan.stageTargets();
    ASSERT_EQ(static_cast<std::int32_t>(targets.size()), plan.numStages);
    for (const double profit : {1.0, 3.5, 8.0}) {
      // Each stage's threshold exactly (not short there) and its
      // neighbouring doubles, plus LHS values of 0 and >= p.
      std::vector<double> lhsValues = {0.0, profit, 2.0 * profit};
      for (const double target : targets) {
        const double threshold = target * profit - kSatisfyTolerance * profit;
        EXPECT_FALSE(fallsShort(threshold, profit, target));
        EXPECT_TRUE(fallsShort(std::nextafter(threshold, 0.0), profit, target));
        lhsValues.push_back(threshold);
        lhsValues.push_back(std::nextafter(threshold, 0.0));
        lhsValues.push_back(std::nextafter(threshold, 2.0 * profit));
      }
      for (const double lhs : lhsValues) {
        for (std::int32_t stage = 0; stage <= plan.numStages; ++stage) {
          EXPECT_EQ(firstShortStage(targets, stage, lhs, profit),
                    firstShortByScan(targets, stage, lhs, profit))
              << "lhs " << lhs << " profit " << profit << " stage " << stage;
        }
      }
      // lhs >= p is never short: targets stay below 1.
      EXPECT_EQ(firstShortStage(targets, 0, profit, profit),
                plan.numStages + 1);
      EXPECT_EQ(firstShortStage(targets, 0, 0.0, profit), 1);
    }
  }
}

}  // namespace
}  // namespace treesched
