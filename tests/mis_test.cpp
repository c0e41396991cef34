#include <gtest/gtest.h>

#include <cmath>

#include "core/universe.hpp"
#include "framework/mis.hpp"
#include "gen/scenario.hpp"

namespace treesched {
namespace {

InstanceUniverse denseUniverse(std::uint64_t seed, std::int32_t m) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = 16;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = m;
  TreeProblem problem = makeTreeScenario(cfg);
  InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  return u;
}

std::vector<InstanceId> allInstances(const InstanceUniverse& u) {
  std::vector<InstanceId> all(static_cast<std::size_t>(u.numInstances()));
  for (InstanceId i = 0; i < u.numInstances(); ++i) {
    all[static_cast<std::size_t>(i)] = i;
  }
  return all;
}

TEST(LubyMis, IndependentAndMaximal) {
  const InstanceUniverse u = denseUniverse(1, 40);
  const auto active = allInstances(u);
  const MisResult mis = lubyMis(u, active, 123);
  EXPECT_TRUE(mis.complete);
  EXPECT_EQ(checkMis(u, active, mis.independent), "");
}

TEST(LubyMis, DeterministicForSeed) {
  const InstanceUniverse u = denseUniverse(2, 30);
  const auto active = allInstances(u);
  const MisResult a = lubyMis(u, active, 7);
  const MisResult b = lubyMis(u, active, 7);
  EXPECT_EQ(a.independent, b.independent);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(LubyMis, DifferentSeedsUsuallyDiffer) {
  const InstanceUniverse u = denseUniverse(3, 60);
  const auto active = allInstances(u);
  int differing = 0;
  for (std::uint64_t s = 0; s < 8; ++s) {
    if (lubyMis(u, active, s).independent !=
        lubyMis(u, active, s + 100).independent) {
      ++differing;
    }
  }
  EXPECT_GE(differing, 4);
}

TEST(LubyMis, EmptyActiveSet) {
  const InstanceUniverse u = denseUniverse(4, 10);
  const MisResult mis = lubyMis(u, {}, 1);
  EXPECT_TRUE(mis.independent.empty());
  EXPECT_EQ(mis.rounds, 0);
  EXPECT_TRUE(mis.complete);
}

TEST(LubyMis, SingletonActiveSet) {
  const InstanceUniverse u = denseUniverse(5, 10);
  const std::vector<InstanceId> active{0};
  const MisResult mis = lubyMis(u, active, 1);
  EXPECT_EQ(mis.independent, active);
  EXPECT_EQ(mis.rounds, 1);
}

TEST(LubyMis, SubsetOfActiveOnly) {
  const InstanceUniverse u = denseUniverse(6, 30);
  std::vector<InstanceId> active;
  for (InstanceId i = 0; i < u.numInstances(); i += 2) {
    active.push_back(i);
  }
  const MisResult mis = lubyMis(u, active, 9);
  for (const InstanceId i : mis.independent) {
    EXPECT_EQ(i % 2, 0) << "MIS must only contain active instances";
  }
  EXPECT_EQ(checkMis(u, active, mis.independent), "");
}

TEST(LubyMis, BudgetZeroRoundsMeansComplete) {
  const InstanceUniverse u = denseUniverse(7, 50);
  const auto active = allInstances(u);
  const MisResult mis = lubyMis(u, active, 5, /*roundBudget=*/0);
  EXPECT_TRUE(mis.complete);
}

TEST(LubyMis, TightBudgetStillIndependent) {
  const InstanceUniverse u = denseUniverse(8, 80);
  const auto active = allInstances(u);
  const MisResult mis = lubyMis(u, active, 5, /*roundBudget=*/1);
  // One round may not reach maximality, but independence must hold.
  for (const InstanceId i : mis.independent) {
    for (const InstanceId j : mis.independent) {
      if (i < j) {
        EXPECT_FALSE(u.conflicting(i, j));
      }
    }
  }
}

TEST(LubyMis, RoundsLogarithmicOnAverage) {
  // O(log N) w.h.p. — check the average over seeds stays within a
  // generous 4*lg(N)+8 budget.
  const InstanceUniverse u = denseUniverse(9, 120);
  const auto active = allInstances(u);
  const double lg = std::log2(static_cast<double>(u.numInstances()));
  for (std::uint64_t s = 0; s < 10; ++s) {
    const MisResult mis = lubyMis(u, active, s);
    EXPECT_LE(mis.rounds, static_cast<std::int32_t>(4 * lg + 8));
  }
}

TEST(MisPriority, PureFunction) {
  EXPECT_EQ(misPriority(1, 2, 3), misPriority(1, 2, 3));
  EXPECT_NE(misPriority(1, 2, 3), misPriority(1, 3, 3));
  EXPECT_NE(misPriority(1, 2, 3), misPriority(1, 2, 4));
  EXPECT_NE(misPriority(2, 2, 3), misPriority(1, 2, 3));
}

TEST(MisChecker, DetectsNonIndependence) {
  const InstanceUniverse u = denseUniverse(10, 20);
  // Find a conflicting pair.
  for (InstanceId i = 0; i < u.numInstances(); ++i) {
    InstanceId partner = kNoInstance;
    anyConflict(u, i, [&](InstanceId w) {
      partner = w;
      return true;
    });
    if (partner != kNoInstance) {
      const std::vector<InstanceId> bogus{i, partner};
      const std::vector<InstanceId> active = bogus;
      EXPECT_NE(checkMis(u, active, bogus), "");
      return;
    }
  }
  FAIL() << "expected at least one conflict in the dense universe";
}

TEST(MisChecker, DetectsNonMaximality) {
  const InstanceUniverse u = denseUniverse(11, 20);
  const auto active = allInstances(u);
  const std::vector<InstanceId> empty;
  EXPECT_NE(checkMis(u, active, empty), "");
}

}  // namespace
}  // namespace treesched
