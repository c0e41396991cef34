// Sharded placement: many demands per simulated processor.
//
// The paper identifies processors with demands (one each); to scale the
// simulator to much larger instances, a ShardPlacement maps the m demands
// onto a smaller set of physical processors. Messages between demands
// hosted on the same processor are local memory operations; only
// inter-processor traffic touches the (lossy, latency-modelled) wire.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/demand.hpp"

namespace treesched {

enum class ShardStrategy : std::uint8_t {
  /// Demand d lives on processor d % numProcessors.
  RoundRobin,
  /// Demands are ordered by their smallest accessible network id and cut
  /// into contiguous blocks, so demands competing for the same network
  /// tend to share a processor and their chatter stays off the wire.
  Locality,
};

/// A map of demands onto physical processors. Placements built by
/// identity()/build() are total (every demand placed — validated); a
/// livePool() placement starts empty and demands are placed/removed as
/// they arrive and depart (the online churn engine's sharded transport).
struct ShardPlacement {
  /// processorOfDemand value of a demand not currently hosted anywhere;
  /// also the tombstone marker inside demandsOfProcessor lists.
  static constexpr std::int32_t kUnplaced = -1;

  std::int32_t numProcessors = 0;
  /// demand -> processor; kUnplaced when the demand is not hosted.
  std::vector<std::int32_t> processorOfDemand;
  /// Hosted demands per processor. Live placements tombstone departures
  /// in place (entry == kUnplaced) and compact periodically; consumers
  /// iterating the lists must skip tombstones.
  std::vector<std::vector<DemandId>> demandsOfProcessor;

  std::int32_t numDemands() const {
    return static_cast<std::int32_t>(processorOfDemand.size());
  }

  /// One demand per processor — the paper's model, and the placement the
  /// synchronizer uses when no sharding is requested.
  static ShardPlacement identity(std::int32_t numDemands);

  /// Places `access.size()` demands onto `numProcessors` processors.
  /// `access[d]` lists the networks demand d may use (used by Locality;
  /// RoundRobin ignores the contents). numProcessors is clamped to the
  /// demand count; at least 1 processor is required.
  static ShardPlacement build(
      ShardStrategy strategy,
      const std::vector<std::vector<std::int32_t>>& access,
      std::int32_t numProcessors);

  // ---- Live shard membership (the online churn engine) -----------------
  //
  // A live pool starts with every demand unplaced. Arrivals are placed
  // locality-aware: the first live demand of a home network anchors that
  // network to the then-least-loaded processor, and later arrivals
  // sharing the network join it (their chatter stays off the wire) until
  // its last live demand departs and the anchor is released. Departures
  // are tombstoned in demandsOfProcessor and compacted away once they
  // outnumber the live entries.

  /// An all-unplaced placement over `access.size()` pool demands and
  /// `numProcessors` processors, with per-demand home networks (smallest
  /// accessible id) precomputed for locality-aware arrival placement.
  static ShardPlacement livePool(
      const std::vector<std::vector<std::int32_t>>& access,
      std::int32_t numProcessors);

  bool isPlaced(DemandId d) const {
    return processorOfDemand[static_cast<std::size_t>(d)] != kUnplaced;
  }

  /// Places an unplaced demand (live pools only) and returns its
  /// processor: the home-network anchor when one is live, else the
  /// least-loaded processor by weighted load (lowest id on ties), which
  /// then anchors the network.
  std::int32_t placeDemand(DemandId d);

  /// Sets demand `d`'s load weight (live pools only; default 1). The
  /// online solver threads each demand's live instance count through
  /// here, so "load" means instances hosted, not demands hosted. A
  /// weight change while `d` is placed moves its processor's weighted
  /// load immediately. Weights must be >= 1 (a live demand always costs
  /// at least its endpoint).
  void setDemandWeight(DemandId d, std::int64_t weight);

  /// Tombstones a placed demand (live pools only) and releases its
  /// home-network anchor reference; compacts the processor's hosted list
  /// when tombstones outnumber live entries.
  void removeDemand(DemandId d);

  /// Erases the tombstones of processor `p`'s hosted list eagerly.
  void compactProcessor(std::int32_t p);

  // ---- Epoch-boundary hot-shard rebalancing ----------------------------
  //
  // A sticky anchor pins a network to one processor for its whole live
  // span — exactly what lets a long-lived hot network (targeted_burst)
  // accumulate unbounded load there. planRebalance() computes a
  // deterministic set of demand migrations that caps every processor
  // near threshold * mean live load: whole networks move first
  // (preserving off-wire locality), and a single network too hot to fit
  // anywhere is split, trading wire locality for balance. The caller
  // (AlphaSynchronizer::rebalanceShards) applies the moves and rewires
  // its physical-edge bookkeeping; placement is wire accounting only, so
  // the schedule never changes.

  /// One planned migration: move live demand `demand` from processor
  /// `from` to processor `to`.
  struct Migration {
    DemandId demand = 0;
    std::int32_t from = 0;
    std::int32_t to = 0;
  };

  struct RebalancePlan {
    std::vector<Migration> moves;
    /// (network, processor): anchors to retarget because the network
    /// moved wholesale — future arrivals of the network follow it.
    std::vector<std::pair<std::int32_t, std::int32_t>> anchorMoves;
    std::int32_t networksMoved = 0;
    double varianceBefore = 0;  ///< per-processor live-load variance
    double varianceAfter = 0;   ///< ... assuming the plan is applied
  };

  /// Population variance of the per-processor weighted live loads
  /// (demand counts while every weight is 1).
  double loadVariance() const;

  /// Plans migrations until no processor's live load exceeds
  /// `threshold * mean` (or `maxMoves` iterations ran). Deterministic:
  /// processors tie-break by lowest id, candidate networks by
  /// keyedHash(seed, ...) — a pure function of the placement state and
  /// arguments. Does not mutate the placement.
  RebalancePlan planRebalance(double threshold, std::uint64_t seed,
                              std::int32_t maxMoves) const;

  /// Moves a live placed demand to processor `to` (live pools only):
  /// tombstones the old hosted entry, appends to the new list, keeps the
  /// home-network anchor untouched. Migrating to the current processor
  /// is a no-op.
  void migrateDemand(DemandId d, std::int32_t to);

  /// Points network `net`'s anchor at processor `to` (the anchor must
  /// exist): future arrivals of the network land there.
  void retargetAnchor(std::int32_t net, std::int32_t to);

  std::int32_t liveDemandCount(std::int32_t p) const {
    return liveOfProcessor[static_cast<std::size_t>(p)];
  }
  std::int32_t tombstoneCount(std::int32_t p) const {
    return tombstonesOfProcessor[static_cast<std::size_t>(p)];
  }

  /// True when built by livePool() — the synchronizer places arrivals
  /// and removes departures only on live placements.
  bool live = false;
  /// Per pool demand: smallest accessible network id, -1 when none.
  /// Filled by livePool().
  std::vector<std::int32_t> homeNetwork;
  std::vector<std::int32_t> liveOfProcessor;        ///< live entries per proc
  std::vector<std::int32_t> tombstonesOfProcessor;  ///< tombstones per proc
  /// Per pool demand: placement load weight (live instance count, set by
  /// the online solver; 1 until set). Filled by livePool().
  std::vector<std::int64_t> weightOfDemand;
  /// Per processor: sum of hosted live demand weights.
  std::vector<std::int64_t> weightedLoadOfProcessor;
  /// Sticky network -> (processor, live refcount) anchors.
  struct NetworkAnchor {
    std::int32_t processor = 0;
    std::int32_t refs = 0;
  };
  std::unordered_map<std::int32_t, NetworkAnchor> networkAnchors;
  std::int64_t compactions = 0;  ///< hosted-list compactions, whole run
};

/// A demand's home network: the smallest accessible network id, -1 when
/// it can access none. THE locality convention — live shard placement
/// anchors by it and the targeted-burst churn model attacks by it
/// (online/arrivals.cpp), so both must share this definition.
std::int32_t homeNetworkOf(const std::vector<std::int32_t>& access);

}  // namespace treesched
