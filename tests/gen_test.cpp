#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/universe.hpp"
#include "gen/scenario.hpp"

namespace treesched {
namespace {

TEST(TreeGen, AllShapesProduceValidTrees) {
  for (const TreeShape shape : kAllTreeShapes) {
    for (const std::int32_t n : {1, 2, 3, 8, 50}) {
      Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
      // TreeNetwork's constructor validates treeness; just construct.
      const TreeNetwork t = generateTree(shape, 0, n, rng);
      EXPECT_EQ(t.numVertices(), n) << treeShapeName(shape);
    }
  }
}

TEST(TreeGen, UniformTreesVary) {
  Rng rng(1);
  const TreeNetwork a = generateTree(TreeShape::UniformRandom, 0, 30, rng);
  const TreeNetwork b = generateTree(TreeShape::UniformRandom, 0, 30, rng);
  int differing = 0;
  for (EdgeId e = 0; e < a.numEdges(); ++e) {
    if (a.edge(e) != b.edge(e)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(DemandGen, ProfitsWithinRange) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const double p = drawProfit(ProfitDistribution::Uniform, 2.0, 9.0, rng);
    EXPECT_GE(p, 2.0);
    EXPECT_LE(p, 9.0);
    const double q = drawProfit(ProfitDistribution::PowerLaw, 2.0, 9.0, rng);
    EXPECT_GE(q, 2.0);
    EXPECT_LE(q, 9.0 + 1e-9);
    const double r = drawProfit(ProfitDistribution::TwoPoint, 2.0, 9.0, rng);
    EXPECT_TRUE(r == 2.0 || r == 9.0);
  }
}

TEST(DemandGen, HeightsRespectMode) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ(drawHeight(HeightMode::Unit, 0.1, rng), 1.0);
    const double narrow = drawHeight(HeightMode::Narrow, 0.1, rng);
    EXPECT_GE(narrow, 0.1);
    EXPECT_LE(narrow, 0.5);
    const double wide = drawHeight(HeightMode::Wide, 0.1, rng);
    EXPECT_GT(wide, 0.5);
    EXPECT_LE(wide, 1.0);
  }
}

TEST(Scenario, TreeScenarioValidates) {
  TreeScenarioConfig cfg;
  cfg.seed = 9;
  cfg.numVertices = 40;
  cfg.numNetworks = 4;
  cfg.demands.numDemands = 50;
  cfg.demands.accessProbability = 0.5;
  cfg.demands.heights = HeightMode::Mixed;
  cfg.demands.hmin = 0.2;
  const TreeProblem problem = makeTreeScenario(cfg);  // validates internally
  EXPECT_EQ(problem.numDemands(), 50);
  EXPECT_EQ(problem.numNetworks(), 4);
  EXPECT_FALSE(problem.isUnitHeight());
}

TEST(Scenario, TreeScenarioDeterministicForSeed) {
  TreeScenarioConfig cfg;
  cfg.seed = 10;
  cfg.numVertices = 20;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 15;
  const TreeProblem a = makeTreeScenario(cfg);
  const TreeProblem b = makeTreeScenario(cfg);
  for (std::size_t i = 0; i < a.demands.size(); ++i) {
    EXPECT_EQ(a.demands[i].u, b.demands[i].u);
    EXPECT_EQ(a.demands[i].v, b.demands[i].v);
    EXPECT_DOUBLE_EQ(a.demands[i].profit, b.demands[i].profit);
  }
}

TEST(Scenario, WalkLengthKeepsPathsShort) {
  TreeScenarioConfig cfg;
  cfg.seed = 11;
  cfg.numVertices = 100;
  cfg.numNetworks = 1;
  cfg.shape = TreeShape::Path;
  cfg.demands.numDemands = 40;
  cfg.demands.walkLength = 3;
  const TreeProblem problem = makeTreeScenario(cfg);
  for (const Demand& d : problem.demands) {
    EXPECT_LE(problem.networks[0].distance(d.u, d.v), 3);
    EXPECT_NE(d.u, d.v);
  }
}

TEST(Scenario, LineScenarioValidates) {
  LineScenarioConfig cfg;
  cfg.seed = 12;
  cfg.numSlots = 60;
  cfg.numResources = 3;
  cfg.demands.numDemands = 25;
  cfg.demands.windowSlack = 2.0;
  const LineProblem problem = makeLineScenario(cfg);
  EXPECT_EQ(problem.numDemands(), 25);
  for (const WindowDemand& d : problem.demands) {
    EXPECT_GE(d.deadline - d.release + 1, d.processing);
  }
}

TEST(Scenario, TightWindowsWhenSlackZero) {
  LineScenarioConfig cfg;
  cfg.seed = 13;
  cfg.numSlots = 40;
  cfg.numResources = 1;
  cfg.demands.numDemands = 20;
  cfg.demands.windowSlack = 0.0;
  const LineProblem problem = makeLineScenario(cfg);
  for (const WindowDemand& d : problem.demands) {
    EXPECT_EQ(d.deadline - d.release + 1, d.processing);
  }
}

TEST(Scenario, LossyWideAreaPresetsValidateAndAreDeterministic) {
  const LossyWideAreaTreeScenario tree = makeLossyWideAreaTree(7);
  EXPECT_EQ(tree.problem.numDemands(), 36);
  EXPECT_EQ(tree.net.link.latency.model, LatencyModel::HeavyTail);
  EXPECT_GT(tree.net.link.dropProbability, 0.0);
  EXPECT_EQ(tree.net.strategy, ShardStrategy::Locality);

  const LossyWideAreaLineScenario line = makeLossyWideAreaLine(7);
  EXPECT_EQ(line.problem.numDemands(), 30);
  EXPECT_GT(line.net.link.dropProbability, 0.0);

  // Same seed, same workload (problems validate inside the makers).
  const LossyWideAreaTreeScenario again = makeLossyWideAreaTree(7);
  ASSERT_EQ(again.problem.demands.size(), tree.problem.demands.size());
  for (std::size_t i = 0; i < tree.problem.demands.size(); ++i) {
    EXPECT_EQ(again.problem.demands[i].u, tree.problem.demands[i].u);
    EXPECT_EQ(again.problem.demands[i].v, tree.problem.demands[i].v);
    EXPECT_EQ(again.problem.demands[i].profit, tree.problem.demands[i].profit);
  }
}

TEST(Universe, TreeInstanceCountsMatchAccess) {
  TreeScenarioConfig cfg;
  cfg.seed = 14;
  cfg.numVertices = 16;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = 10;
  cfg.demands.accessProbability = 0.6;
  const TreeProblem problem = makeTreeScenario(cfg);
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  std::size_t expected = 0;
  for (const auto& acc : problem.access) {
    expected += acc.size();
  }
  EXPECT_EQ(static_cast<std::size_t>(u.numInstances()), expected);
  for (DemandId d = 0; d < problem.numDemands(); ++d) {
    EXPECT_EQ(u.instancesOfDemand(d).size(),
              problem.access[static_cast<std::size_t>(d)].size());
  }
}

TEST(Universe, LineInstanceCountsMatchWindows) {
  LineScenarioConfig cfg;
  cfg.seed = 15;
  cfg.numSlots = 30;
  cfg.numResources = 2;
  cfg.demands.numDemands = 8;
  cfg.demands.windowSlack = 1.0;
  const LineProblem problem = makeLineScenario(cfg);
  const InstanceUniverse u = InstanceUniverse::fromLineProblem(problem);
  std::size_t expected = 0;
  for (DemandId d = 0; d < problem.numDemands(); ++d) {
    const WindowDemand& dem = problem.demands[static_cast<std::size_t>(d)];
    const std::size_t starts = static_cast<std::size_t>(
        dem.deadline - dem.processing + 1 - dem.release + 1);
    expected += starts * problem.access[static_cast<std::size_t>(d)].size();
  }
  EXPECT_EQ(static_cast<std::size_t>(u.numInstances()), expected);
}

/// A windowed line universe: several start slots per resource. The
/// pairwise rule compares slot ranges there, while anyConflict
/// enumerates shared slots, so the two rules must agree on lines too.
InstanceUniverse windowedLineUniverse(std::uint64_t seed) {
  LineScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numSlots = 24;
  cfg.numResources = 2;
  cfg.demands.numDemands = 12;
  cfg.demands.processingMax = 5;
  cfg.demands.windowSlack = 1.5;
  return InstanceUniverse::fromLineProblem(makeLineScenario(cfg));
}

/// Membership mask of the instances anyConflict visits from i.
std::vector<std::uint8_t> visitedConflicts(const InstanceUniverse& u,
                                           InstanceId i) {
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(u.numInstances()), 0);
  anyConflict(u, i, [&](InstanceId w) {
    seen[static_cast<std::size_t>(w)] = 1;
    return false;
  });
  return seen;
}

void expectConflictSymmetry(const InstanceUniverse& u) {
  for (InstanceId i = 0; i < u.numInstances(); ++i) {
    const auto seen = visitedConflicts(u, i);
    for (InstanceId j = 0; j < u.numInstances(); ++j) {
      if (seen[static_cast<std::size_t>(j)] == 0) continue;
      EXPECT_TRUE(u.conflicting(i, j)) << "(" << i << "," << j << ")";
      EXPECT_TRUE(anyConflict(u, j, [&](InstanceId w) { return w == i; }))
          << "(" << j << "," << i << ")";
    }
  }
}

void expectConflictsMatchDefinition(const InstanceUniverse& u) {
  for (InstanceId i = 0; i < u.numInstances(); ++i) {
    const auto seen = visitedConflicts(u, i);
    for (InstanceId j = 0; j < u.numInstances(); ++j) {
      EXPECT_EQ(seen[static_cast<std::size_t>(j)] != 0, u.conflicting(i, j))
          << "enumeration mismatch for (" << i << "," << j << ")";
    }
  }
}

TEST(Universe, ConflictSymmetry) {
  TreeScenarioConfig cfg;
  cfg.seed = 16;
  cfg.numVertices = 12;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 12;
  const TreeProblem problem = makeTreeScenario(cfg);
  expectConflictSymmetry(InstanceUniverse::fromTreeProblem(problem));

  const InstanceUniverse line = windowedLineUniverse(18);
  EXPECT_GT(line.numInstances(), 2 * line.numDemands());
  expectConflictSymmetry(line);
}

TEST(Universe, ConflictsMatchDefinition) {
  TreeScenarioConfig cfg;
  cfg.seed = 17;
  cfg.numVertices = 10;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 8;
  const TreeProblem problem = makeTreeScenario(cfg);
  expectConflictsMatchDefinition(InstanceUniverse::fromTreeProblem(problem));

  const InstanceUniverse line = windowedLineUniverse(19);
  EXPECT_GT(line.numInstances(), 2 * line.numDemands());
  expectConflictsMatchDefinition(line);
}

}  // namespace
}  // namespace treesched
