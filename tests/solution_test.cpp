#include <gtest/gtest.h>

#include "core/solution.hpp"
#include "core/universe.hpp"
#include "gen/scenario.hpp"
#include "util/check.hpp"

namespace treesched {
namespace {

// Two networks over 6 vertices: a path and a star; three demands.
TreeProblem fixtureProblem() {
  TreeProblem problem;
  problem.numVertices = 6;
  problem.networks.push_back(makePathTree(0, 6));
  problem.networks.push_back(makeStarTree(1, 6));
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
  add(0, 5, 4.0, 1.0);
  add(1, 3, 3.0, 1.0);
  add(2, 4, 2.0, 1.0);
  problem.validate();
  return problem;
}

TEST(Solution, EmptySolutionIsFeasible) {
  const TreeProblem problem = fixtureProblem();
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  const Solution empty;
  EXPECT_TRUE(validateSolution(u, empty).feasible);
  EXPECT_DOUBLE_EQ(solutionProfit(u, empty), 0.0);
}

TEST(Solution, DetectsDuplicateDemand) {
  const TreeProblem problem = fixtureProblem();
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  // Instances 0 and 1 belong to demand 0 (two networks).
  Solution s;
  s.instances = {0, 1};
  const ValidationReport report = validateSolution(u, s);
  EXPECT_FALSE(report.feasible);
  EXPECT_NE(report.firstViolation.find("demand 0"), std::string::npos);
}

TEST(Solution, DetectsEdgeOverCapacity) {
  const TreeProblem problem = fixtureProblem();
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  // Demands 0 (0->5) and 1 (1->3) on the path network share edges 1-2, 2-3.
  const auto inst0 = u.instancesOfDemand(0);
  const auto inst1 = u.instancesOfDemand(1);
  Solution s;
  s.instances = {inst0[0], inst1[0]};  // both on network 0 (the path)
  const ValidationReport report = validateSolution(u, s);
  EXPECT_FALSE(report.feasible);
  EXPECT_NE(report.firstViolation.find("capacity"), std::string::npos);
}

TEST(Solution, DisjointPlacementFeasible) {
  const TreeProblem problem = fixtureProblem();
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  // Demand 0 on the star (path 0-center... 0 IS a leaf: 0->5 via center 0?
  // star center is vertex 0, so path 0->5 is the single edge (0,5)).
  const auto inst0 = u.instancesOfDemand(0);
  const auto inst1 = u.instancesOfDemand(1);
  Solution s;
  s.instances = {inst0[1], inst1[0]};  // demand 0 on star, demand 1 on path
  EXPECT_TRUE(validateSolution(u, s).feasible);
  EXPECT_DOUBLE_EQ(solutionProfit(u, s), 7.0);
  EXPECT_NO_THROW(requireFeasible(u, s));
}

TEST(Solution, RequireFeasibleThrowsOnViolation) {
  const TreeProblem problem = fixtureProblem();
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  Solution s;
  s.instances = {0, 1};
  EXPECT_THROW(requireFeasible(u, s), CheckError);
}

TEST(Solution, FractionalHeightsAtExactCapacity) {
  // Two 0.5-height demands on the same edge must be feasible (sum == 1).
  TreeProblem problem;
  problem.numVertices = 2;
  problem.networks.push_back(makePathTree(0, 2));
  for (int i = 0; i < 2; ++i) {
    Demand d;
    d.id = i;
    d.u = 0;
    d.v = 1;
    d.profit = 1.0;
    d.height = 0.5;
    problem.demands.push_back(d);
    problem.access.push_back({0});
  }
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  Solution s;
  s.instances = {0, 1};
  EXPECT_TRUE(validateSolution(u, s).feasible)
      << "heights summing exactly to capacity must pass";
}

TEST(Solution, ThreeThirdsAtExactCapacity) {
  // 1/3 + 1/3 + 1/3 == 1.0 only up to rounding; the tolerance must absorb
  // the representation error.
  TreeProblem problem;
  problem.numVertices = 2;
  problem.networks.push_back(makePathTree(0, 2));
  for (int i = 0; i < 3; ++i) {
    Demand d;
    d.id = i;
    d.u = 0;
    d.v = 1;
    d.profit = 1.0;
    d.height = 1.0 / 3.0;
    problem.demands.push_back(d);
    problem.access.push_back({0});
  }
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  Solution s;
  s.instances = {0, 1, 2};
  EXPECT_TRUE(validateSolution(u, s).feasible);
}

TEST(FeasibilityOracle, TracksProfitThroughAddRemove) {
  const TreeProblem problem = fixtureProblem();
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  FeasibilityOracle oracle(u);
  const auto inst0 = u.instancesOfDemand(0);
  oracle.add(inst0[1]);
  EXPECT_DOUBLE_EQ(oracle.profit(), 4.0);
  EXPECT_FALSE(oracle.canAdd(inst0[0])) << "same demand twice";
  oracle.remove(inst0[1]);
  EXPECT_TRUE(oracle.canAdd(inst0[0]));
  EXPECT_TRUE(oracle.solution().instances.empty());
}

TEST(FeasibilityOracle, RemoveOfNonMemberThrows) {
  const TreeProblem problem = fixtureProblem();
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  FeasibilityOracle oracle(u);
  EXPECT_THROW(oracle.remove(0), CheckError);
}

TEST(FeasibilityOracle, WideInstancesExcludeEachOther) {
  // §6: two overlapping wide instances can never coexist — the fact that
  // lets the unit-height algorithm run on wide instances unchanged.
  TreeProblem problem;
  problem.numVertices = 3;
  problem.networks.push_back(makePathTree(0, 3));
  for (int i = 0; i < 2; ++i) {
    Demand d;
    d.id = i;
    d.u = 0;
    d.v = 2;
    d.profit = 1.0;
    d.height = 0.6;  // wide
    problem.demands.push_back(d);
    problem.access.push_back({0});
  }
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  FeasibilityOracle oracle(u);
  oracle.add(0);
  EXPECT_FALSE(oracle.canAdd(1));
}

}  // namespace
}  // namespace treesched
