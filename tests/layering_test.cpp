#include <gtest/gtest.h>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "gen/scenario.hpp"
#include "test_fixtures.hpp"

namespace treesched {
namespace {

using testing::paperExampleTree;

TreeProblem smallTreeProblem(std::uint64_t seed, std::int32_t n, std::int32_t m,
                             std::int32_t r, TreeShape shape) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = n;
  cfg.numNetworks = r;
  cfg.shape = shape;
  cfg.demands.numDemands = m;
  cfg.demands.accessProbability = 0.7;
  return makeTreeScenario(cfg);
}

// ---- Tree layering (Lemma 4.2 / 4.3) ----

TEST(TreeLayering, InterferencePropertyHolds) {
  const TreeProblem problem = smallTreeProblem(1, 24, 30, 3,
                                               TreeShape::UniformRandom);
  const InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const Layering layering = buildTreeLayering(problem, universe);
  EXPECT_EQ(checkLayering(universe, layering), "");
}

TEST(TreeLayering, DeltaAtMostSixWithIdeal) {
  const TreeProblem problem = smallTreeProblem(2, 40, 60, 2,
                                               TreeShape::UniformRandom);
  const InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const Layering layering = buildTreeLayering(problem, universe);
  EXPECT_LE(layering.maxCriticalSize, 6)
      << "Lemma 4.3: Delta = 2*(theta+1) <= 6 for the ideal decomposition";
}

TEST(TreeLayering, GroupCountLogarithmic) {
  const TreeProblem problem = smallTreeProblem(3, 128, 20, 1,
                                               TreeShape::UniformRandom);
  const InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const Layering layering = buildTreeLayering(problem, universe);
  std::int32_t lg = 0;
  while ((1 << lg) < 128) ++lg;
  EXPECT_LE(layering.numGroups, 2 * lg + 1);
}

TEST(TreeLayering, RootFixingGivesDeltaFour) {
  // theta = 1 -> Delta <= 2*(1+1) = 4 (but depth may be large).
  const TreeProblem problem = smallTreeProblem(4, 32, 40, 2,
                                               TreeShape::UniformRandom);
  const InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const Layering layering =
      buildTreeLayering(problem, universe, DecompositionKind::RootFixing);
  EXPECT_LE(layering.maxCriticalSize, 4);
  EXPECT_EQ(checkLayering(universe, layering), "");
}

TEST(TreeLayering, BalancingInterferenceHolds) {
  const TreeProblem problem = smallTreeProblem(5, 32, 40, 2,
                                               TreeShape::UniformRandom);
  const InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const Layering layering =
      buildTreeLayering(problem, universe, DecompositionKind::Balancing);
  EXPECT_EQ(checkLayering(universe, layering), "");
}

// Property sweep across shapes and seeds: the interference property is the
// linchpin of the approximation proof, so verify it exhaustively.
struct LayeringCase {
  TreeShape shape;
  std::uint64_t seed;
  DecompositionKind kind;
};

class TreeLayeringPropertyTest
    : public ::testing::TestWithParam<LayeringCase> {};

TEST_P(TreeLayeringPropertyTest, InterferenceAndDeltaBounds) {
  const auto& param = GetParam();
  const TreeProblem problem = smallTreeProblem(param.seed, 20, 25, 2,
                                               param.shape);
  const InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const Layering layering = buildTreeLayering(problem, universe, param.kind);
  EXPECT_EQ(checkLayering(universe, layering), "");
  if (param.kind == DecompositionKind::Ideal) {
    EXPECT_LE(layering.maxCriticalSize, 6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gallery, TreeLayeringPropertyTest,
    ::testing::Values(
        LayeringCase{TreeShape::UniformRandom, 11, DecompositionKind::Ideal},
        LayeringCase{TreeShape::UniformRandom, 12, DecompositionKind::Ideal},
        LayeringCase{TreeShape::UniformRandom, 13,
                     DecompositionKind::Balancing},
        LayeringCase{TreeShape::UniformRandom, 14,
                     DecompositionKind::RootFixing},
        LayeringCase{TreeShape::Path, 15, DecompositionKind::Ideal},
        LayeringCase{TreeShape::Star, 16, DecompositionKind::Ideal},
        LayeringCase{TreeShape::Caterpillar, 17, DecompositionKind::Ideal},
        LayeringCase{TreeShape::Spider, 18, DecompositionKind::Ideal},
        LayeringCase{TreeShape::BalancedBinary, 19, DecompositionKind::Ideal}),
    [](const ::testing::TestParamInfo<LayeringCase>& info) {
      return treeShapeName(info.param.shape) + "_s" +
             std::to_string(info.param.seed) + "_" +
             decompositionKindName(info.param.kind).substr(0, 4);
    });

// ---- Line layering (§7) ----

LineProblem smallLineProblem(std::uint64_t seed, double slack) {
  LineScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numSlots = 48;
  cfg.numResources = 2;
  cfg.demands.numDemands = 25;
  cfg.demands.processingMin = 1;
  cfg.demands.processingMax = 12;
  cfg.demands.windowSlack = slack;
  cfg.demands.accessProbability = 0.8;
  return makeLineScenario(cfg);
}

TEST(LineLayering, InterferencePropertyHolds) {
  const LineProblem problem = smallLineProblem(21, 0.0);
  const InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  const Layering layering = buildLineLayering(problem, universe);
  EXPECT_EQ(checkLayering(universe, layering), "");
}

TEST(LineLayering, InterferenceWithWindows) {
  const LineProblem problem = smallLineProblem(22, 1.5);
  const InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  const Layering layering = buildLineLayering(problem, universe);
  EXPECT_EQ(checkLayering(universe, layering), "");
}

TEST(LineLayering, DeltaAtMostThree) {
  const LineProblem problem = smallLineProblem(23, 1.0);
  const InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  const Layering layering = buildLineLayering(problem, universe);
  EXPECT_LE(layering.maxCriticalSize, 3);
}

TEST(LineLayering, GroupCountMatchesLengthSpread) {
  const LineProblem problem = smallLineProblem(24, 0.0);
  const InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  const Layering layering = buildLineLayering(problem, universe);
  // numGroups <= ceil(lg(Lmax/Lmin)) + 1.
  std::int32_t lg = 0;
  while ((1 << lg) < 12) ++lg;
  EXPECT_LE(layering.numGroups, lg + 1);
}

TEST(LineLayering, ShortInstancesComeFirst) {
  const LineProblem problem = smallLineProblem(25, 0.5);
  const InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  const Layering layering = buildLineLayering(problem, universe);
  for (InstanceId a = 0; a < universe.numInstances(); ++a) {
    for (InstanceId b = 0; b < universe.numInstances(); ++b) {
      if (universe.instance(a).pathLength() * 2 <=
          universe.instance(b).pathLength()) {
        EXPECT_LT(layering.group[static_cast<std::size_t>(a)],
                  layering.group[static_cast<std::size_t>(b)]);
      }
    }
  }
}

TEST(LineLayering, SingleSlotInstances) {
  LineProblem problem;
  problem.numSlots = 4;
  problem.numResources = 1;
  problem.demands = {makeIntervalDemand(0, 0, 0, 1.0),
                     makeIntervalDemand(1, 0, 3, 2.0)};
  problem.access = fullLineAccess(2, 1);
  const InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  const Layering layering = buildLineLayering(problem, universe);
  EXPECT_EQ(checkLayering(universe, layering), "");
  // One-slot instance: all three wings coincide.
  EXPECT_EQ(layering.critical(0).size(), 1u);
}

}  // namespace
}  // namespace treesched
