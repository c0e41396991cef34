// ShardPlacement coverage: every demand placed exactly once, round-robin
// balance, locality keeping same-network demands together, and the
// processor-level collapse of the communication graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/scenario.hpp"
#include "net/shard.hpp"
#include "util/check.hpp"

namespace treesched {
namespace {

/// Access lists for m demands over r networks, demand d on network d % r.
std::vector<std::vector<std::int32_t>> stripedAccess(std::int32_t m,
                                                     std::int32_t r) {
  std::vector<std::vector<std::int32_t>> access(
      static_cast<std::size_t>(m));
  for (std::int32_t d = 0; d < m; ++d) {
    access[static_cast<std::size_t>(d)] = {d % r};
  }
  return access;
}

void expectPartition(const ShardPlacement& placement, std::int32_t m) {
  ASSERT_EQ(placement.numDemands(), m);
  std::set<DemandId> seen;
  for (std::int32_t p = 0; p < placement.numProcessors; ++p) {
    for (const DemandId d :
         placement.demandsOfProcessor[static_cast<std::size_t>(p)]) {
      EXPECT_EQ(placement.processorOfDemand[static_cast<std::size_t>(d)], p);
      EXPECT_TRUE(seen.insert(d).second)
          << "demand " << d << " placed more than once";
    }
  }
  EXPECT_EQ(static_cast<std::int32_t>(seen.size()), m)
      << "every demand must be placed exactly once";
}

TEST(ShardPlacement, EveryDemandPlacedExactlyOnce) {
  for (const ShardStrategy strategy :
       {ShardStrategy::RoundRobin, ShardStrategy::Locality}) {
    for (const std::int32_t procs : {1, 2, 3, 7, 20, 50}) {
      const ShardPlacement placement =
          ShardPlacement::build(strategy, stripedAccess(20, 4), procs);
      expectPartition(placement, 20);
      EXPECT_LE(placement.numProcessors, 20)
          << "processor count clamps to the demand count";
    }
  }
}

TEST(ShardPlacement, IdentityIsOneDemandPerProcessor) {
  const ShardPlacement placement = ShardPlacement::identity(5);
  expectPartition(placement, 5);
  EXPECT_EQ(placement.numProcessors, 5);
  for (DemandId d = 0; d < 5; ++d) {
    EXPECT_EQ(placement.processorOfDemand[static_cast<std::size_t>(d)], d);
  }
}

TEST(ShardPlacement, RoundRobinBalancesWithinOne) {
  const ShardPlacement placement = ShardPlacement::build(
      ShardStrategy::RoundRobin, stripedAccess(23, 3), 5);
  std::size_t lo = 23, hi = 0;
  for (const auto& hosted : placement.demandsOfProcessor) {
    lo = std::min(lo, hosted.size());
    hi = std::max(hi, hosted.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(ShardPlacement, LocalityKeepsSameNetworkDemandsTogether) {
  // 4 demands on network 0, then 4 on network 1 (interleaved ids), two
  // processors: each processor must host demands of exactly one network.
  std::vector<std::vector<std::int32_t>> access = {
      {0}, {1}, {0}, {1}, {0}, {1}, {0}, {1}};
  const ShardPlacement placement =
      ShardPlacement::build(ShardStrategy::Locality, access, 2);
  expectPartition(placement, 8);
  for (std::int32_t p = 0; p < 2; ++p) {
    std::set<std::int32_t> networks;
    for (const DemandId d :
         placement.demandsOfProcessor[static_cast<std::size_t>(p)]) {
      networks.insert(access[static_cast<std::size_t>(d)][0]);
    }
    EXPECT_EQ(networks.size(), 1u)
        << "locality placement mixed networks on processor " << p;
  }
}

TEST(ShardPlacement, LocalityHandlesEmptyAccessLists) {
  // Demands with no accessible network sort last but must still be placed.
  std::vector<std::vector<std::int32_t>> access = {{0}, {}, {1}, {}};
  const ShardPlacement placement =
      ShardPlacement::build(ShardStrategy::Locality, access, 2);
  expectPartition(placement, 4);
}

TEST(ShardPlacement, RejectsDegenerateInputs) {
  EXPECT_THROW(ShardPlacement::identity(0), CheckError);
  EXPECT_THROW(ShardPlacement::build(ShardStrategy::RoundRobin, {}, 2),
               CheckError);
  EXPECT_THROW(
      ShardPlacement::build(ShardStrategy::RoundRobin, stripedAccess(4, 2), 0),
      CheckError);
}

TEST(ShardPlacement, ZeroDemandProcessorsStayValidEndToEnd) {
  // More processors than demands clamps to one processor per demand, so
  // no shard is ever built empty, and the clamped placement still passes
  // the partition audit. Live placements do leave shards empty; that case
  // runs end to end in online_transport_test's
  // ShardedMutationOnZeroDemandShards.
  const ShardPlacement clamped = ShardPlacement::build(
      ShardStrategy::Locality, stripedAccess(3, 2), 8);
  expectPartition(clamped, 3);
  EXPECT_EQ(clamped.numProcessors, 3);
  for (const auto& shard : clamped.demandsOfProcessor) {
    EXPECT_FALSE(shard.empty());
  }
}

TEST(ShardPlacement, AllDemandsOnOneNetworkSplitIntoBalancedBlocks) {
  // One shared network: locality has a single home-network class, so the
  // split degenerates to contiguous near-equal blocks — never one
  // overloaded processor.
  std::vector<std::vector<std::int32_t>> access(
      10, std::vector<std::int32_t>{0});
  const ShardPlacement placement =
      ShardPlacement::build(ShardStrategy::Locality, access, 3);
  expectPartition(placement, 10);
  for (const auto& shard : placement.demandsOfProcessor) {
    EXPECT_GE(static_cast<std::int32_t>(shard.size()), 3);
    EXPECT_LE(static_cast<std::int32_t>(shard.size()), 4);
  }
  // Contiguity: each shard hosts a consecutive demand-id range here
  // (stable sort on equal home networks preserves id order).
  for (const auto& shard : placement.demandsOfProcessor) {
    for (std::size_t i = 1; i < shard.size(); ++i) {
      EXPECT_EQ(shard[i], shard[i - 1] + 1);
    }
  }
}

TEST(ShardPlacement, LocalityGroupsAccessCountMaxInstances) {
  // The count-based accessibility generator of the scale presets: every
  // demand accesses 1-2 of many networks. Locality must (a) keep the
  // partition exact and (b) co-locate most demands with at least one
  // same-home-network demand, which is what keeps their chatter off the
  // wire.
  const TreeProblem pool = makeCdnTree250k(11, 320);
  const std::int32_t processors = 16;
  const ShardPlacement placement = ShardPlacement::build(
      ShardStrategy::Locality, pool.access, processors);
  expectPartition(placement, pool.numDemands());
  EXPECT_EQ(placement.numProcessors, processors);

  const auto homeNetwork = [&pool](DemandId d) {
    const auto& nets = pool.access[static_cast<std::size_t>(d)];
    return *std::min_element(nets.begin(), nets.end());
  };
  // Contiguous-cut invariant: consecutive shards cover non-decreasing
  // home-network bands (a class may straddle one boundary, never two).
  std::int32_t previousMax = -1;
  for (const auto& shard : placement.demandsOfProcessor) {
    ASSERT_FALSE(shard.empty());
    std::int32_t lo = homeNetwork(shard.front());
    std::int32_t hi = lo;
    for (const DemandId d : shard) {
      lo = std::min(lo, homeNetwork(d));
      hi = std::max(hi, homeNetwork(d));
    }
    if (previousMax >= 0) {
      EXPECT_GE(lo, previousMax);
    }
    previousMax = hi;
  }
  // And the locality payoff: demands sharing a home network land on the
  // same processor far more often than round-robin would manage.
  std::int64_t localityTogether = 0;
  std::int64_t roundRobinTogether = 0;
  const ShardPlacement roundRobin = ShardPlacement::build(
      ShardStrategy::RoundRobin, pool.access, processors);
  for (DemandId a = 0; a < pool.numDemands(); ++a) {
    for (DemandId b = a + 1; b < pool.numDemands(); ++b) {
      if (homeNetwork(a) != homeNetwork(b)) continue;
      if (placement.processorOfDemand[static_cast<std::size_t>(a)] ==
          placement.processorOfDemand[static_cast<std::size_t>(b)]) {
        ++localityTogether;
      }
      if (roundRobin.processorOfDemand[static_cast<std::size_t>(a)] ==
          roundRobin.processorOfDemand[static_cast<std::size_t>(b)]) {
        ++roundRobinTogether;
      }
    }
  }
  EXPECT_GT(localityTogether, 2 * roundRobinTogether);
}

// ---- Epoch-boundary migration primitives + the rebalance planner ----

/// Live pool with every demand on one home network: the sticky anchor
/// piles all arrivals onto a single processor — the hot-shard shape the
/// rebalancer exists for.
ShardPlacement hotPool(std::int32_t demands, std::int32_t processors) {
  std::vector<std::vector<std::int32_t>> access(
      static_cast<std::size_t>(demands), std::vector<std::int32_t>{0});
  ShardPlacement placement = ShardPlacement::livePool(access, processors);
  for (DemandId d = 0; d < demands; ++d) {
    placement.placeDemand(d);
  }
  return placement;
}

TEST(ShardMigration, MigrateToSelfIsANoOp) {
  ShardPlacement placement = hotPool(4, 3);
  const std::int32_t home = placement.processorOfDemand[0];
  const auto hostedBefore =
      placement.demandsOfProcessor[static_cast<std::size_t>(home)];
  placement.migrateDemand(1, home);
  EXPECT_EQ(placement.demandsOfProcessor[static_cast<std::size_t>(home)],
            hostedBefore);
  EXPECT_EQ(placement.tombstoneCount(home), 0);
  EXPECT_EQ(placement.liveDemandCount(home), 4);
}

TEST(ShardMigration, MigrationWithTombstonedDeparturesCompacts) {
  ShardPlacement placement = hotPool(6, 2);
  const std::int32_t home = placement.processorOfDemand[0];
  const std::int32_t other = 1 - home;
  // Tombstone two departures, then migrate two more away: the source
  // list accumulates tombstones until they outnumber the live entries,
  // at which point it compacts — and the live/tombstone counters agree
  // with the lists throughout.
  placement.removeDemand(0);
  placement.removeDemand(1);
  EXPECT_EQ(placement.tombstoneCount(home), 2);
  placement.migrateDemand(2, other);
  placement.migrateDemand(3, other);
  EXPECT_EQ(placement.liveDemandCount(home), 2);
  EXPECT_EQ(placement.liveDemandCount(other), 2);
  EXPECT_GE(placement.compactions, 1);
  // Every surviving entry is live and on the processor its map says.
  for (std::int32_t p = 0; p < placement.numProcessors; ++p) {
    std::int32_t live = 0;
    for (const DemandId d :
         placement.demandsOfProcessor[static_cast<std::size_t>(p)]) {
      if (d == ShardPlacement::kUnplaced) continue;
      EXPECT_EQ(placement.processorOfDemand[static_cast<std::size_t>(d)], p);
      ++live;
    }
    EXPECT_EQ(live, placement.liveDemandCount(p));
  }
  // The home anchor is untouched by migration: a fresh arrival of the
  // network still lands on it.
  EXPECT_EQ(placement.placeDemand(0), home);
}

TEST(ShardMigration, LastDemandLeavesAValidEmptySource) {
  ShardPlacement placement = hotPool(2, 2);
  const std::int32_t home = placement.processorOfDemand[0];
  const std::int32_t other = 1 - home;
  placement.migrateDemand(0, other);
  placement.migrateDemand(1, other);
  EXPECT_EQ(placement.liveDemandCount(home), 0);
  EXPECT_EQ(placement.liveDemandCount(other), 2);
  // A later plan over the now-empty source processor treats it as the
  // cold target, never a move source.
  const ShardPlacement::RebalancePlan plan = placement.planRebalance(
      /*threshold=*/1.25, /*seed=*/7, /*maxMoves=*/8);
  for (const ShardPlacement::Migration& move : plan.moves) {
    EXPECT_NE(move.from, home);
    EXPECT_EQ(move.to, home);
  }
  EXPECT_FALSE(plan.moves.empty());
  EXPECT_LT(plan.varianceAfter, plan.varianceBefore);
}

TEST(ShardMigration, PlanIsDeterministicAndPure) {
  ShardPlacement placement = hotPool(24, 4);
  const std::vector<std::int32_t> mapBefore = placement.processorOfDemand;
  const ShardPlacement::RebalancePlan first =
      placement.planRebalance(1.25, 42, 64);
  const ShardPlacement::RebalancePlan second =
      placement.planRebalance(1.25, 42, 64);
  // Pure: planning mutates nothing.
  EXPECT_EQ(placement.processorOfDemand, mapBefore);
  // Deterministic: identical inputs, identical plan.
  ASSERT_EQ(first.moves.size(), second.moves.size());
  for (std::size_t k = 0; k < first.moves.size(); ++k) {
    EXPECT_EQ(first.moves[k].demand, second.moves[k].demand);
    EXPECT_EQ(first.moves[k].from, second.moves[k].from);
    EXPECT_EQ(first.moves[k].to, second.moves[k].to);
  }
  EXPECT_EQ(first.varianceBefore, second.varianceBefore);
  EXPECT_EQ(first.varianceAfter, second.varianceAfter);
  // The hot single-network pool can only be flattened by splitting: the
  // plan must cut the 24-on-one-processor pile well below threshold *
  // mean (24 live / 4 procs * 1.25 = 7.5 -> cap 8 after integer gaps).
  ASSERT_FALSE(first.moves.empty());
  ShardPlacement applied = placement;
  for (const ShardPlacement::Migration& move : first.moves) {
    applied.migrateDemand(move.demand, move.to);
  }
  EXPECT_EQ(applied.loadVariance(), first.varianceAfter);
  for (std::int32_t p = 0; p < applied.numProcessors; ++p) {
    EXPECT_LE(applied.liveDemandCount(p), 8);
  }
}

TEST(ShardMigration, BalancedPoolPlansNothing) {
  // Striped homes: arrivals round-robin across anchors, loads are even,
  // the planner must leave everything in place.
  ShardPlacement placement =
      ShardPlacement::livePool(stripedAccess(12, 4), 4);
  for (DemandId d = 0; d < 12; ++d) {
    placement.placeDemand(d);
  }
  const ShardPlacement::RebalancePlan plan =
      placement.planRebalance(1.25, 3, 64);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_EQ(plan.varianceBefore, plan.varianceAfter);
  EXPECT_EQ(plan.networksMoved, 0);
}

}  // namespace
}  // namespace treesched
