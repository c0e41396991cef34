// The plane-transport core: everything a Transport holds that is not the
// wire.
//
// Both transports that run the §5 protocol — the round-synchronous bus
// (dist/sim_network.hpp) and the alpha-synchronizer over the async lossy
// wire (net/synchronizer.hpp) — keep one live demand graph, one flat
// MessagePlane of demand-level inboxes and one round accounting. They
// differ only in how a broadcast reaches the plane: the bus stages the
// sender's fan-out directly, the synchronizer stages same-processor
// neighbours at once and wire deliveries at the round boundary. This base
// owns the shared part, so the two can never drift apart:
//
//  * the validated adjacency and its queries (neighbors, validateTopology);
//  * the live-topology splice the online churn engine (src/online/)
//    drives: connectDemand checks the whole list before it touches any
//    row (a rejected call changes nothing), and disconnectDemand removes
//    both sides of every edge;
//  * the online path's placement hooks (rebalanceShards,
//    setDemandWeight, recordPlacementLoad);
//  * the inboxes (inbox, appendActiveInboxes, attachRunner);
//  * the round accounting: NetworkStats plus the net.{rounds,busy_rounds,
//    messages,silent_rounds} counters and the "deliver" instant of
//    deliverRound(), and the common part of endSilentRounds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dist/message.hpp"
#include "engine/message_plane.hpp"
#include "net/shard.hpp"
#include "net/transport.hpp"

namespace treesched {

class Counter;

/// Knobs of the epoch-boundary hot-shard rebalancer (live sharded
/// placements only). Rebalancing moves hosted demands between physical
/// processors — pure wire accounting, never the schedule — so it is safe
/// to run between any two epochs; `tests/rebalance_test.cpp` gates that
/// claim bit-identically. Its load threshold and move cap are constants
/// of AlphaSynchronizer::rebalanceShards.
struct ShardRebalanceConfig {
  bool enabled = false;
  /// Keys the deterministic tie-breaks (candidate network and target
  /// processor choice); never a stateful RNG.
  std::uint64_t seed = 1;
};

/// What one rebalance call did: the demand moves it applied, in order.
/// Variances are per-processor live-load population variances; before ==
/// after when nothing moved.
struct RebalanceOutcome {
  std::vector<ShardPlacement::Migration> moves;
  std::int32_t networksMoved = 0;
  double loadVarianceBefore = 0;
  double loadVarianceAfter = 0;
};

class PlaneTransport : public Transport {
 public:
  std::int32_t numProcessors() const override {
    return static_cast<std::int32_t>(adjacency_.size());
  }

  /// The live neighbour list of `p`; invalidated by the next
  /// connectDemand/disconnectDemand.
  std::span<const std::int32_t> neighbors(std::int32_t p) const override;

  /// Advances `count` rounds in which no processor transmits. Inboxes are
  /// cleared; busyRounds is unchanged and silentRounds (and the
  /// net.silent_rounds counter) grows by `count`. A zero count changes
  /// nothing.
  void endSilentRounds(std::int64_t count) override;

  /// Messages delivered to `p` by the last round boundary.
  std::span<const Message> inbox(std::int32_t p) const override;

  void appendActiveInboxes(std::vector<std::int32_t>& out) const override;

  void attachRunner(ParallelRunner* runner) override {
    plane_.attachRunner(runner);
  }

  /// Publishes net.{rounds,busy_rounds,messages,silent_rounds} counters
  /// into `metrics` and emits a "deliver" instant per busy round through
  /// `tracer`.
  /// Instruments are resolved here, once; the round hot loop stays
  /// allocation-free.
  void attachTelemetry(Tracer* tracer, MetricsRegistry* metrics) override;

  const NetworkStats& stats() const override { return stats_; }

  // ---- Live topology (the online churn engine, src/online/) ----
  //
  // Demands arrive and depart on a *running* transport: the plane, the
  // stats, the placement and the untouched adjacency lists all persist,
  // so consecutive epoch re-solves share one warmed-up wire. Every call
  // below that mutates requires a round boundary (no staged traffic).
  // The no-op defaults are the reliable bus's (SimNetwork): it has no
  // placement, so only AlphaSynchronizer overrides them.

  /// Attaches demand `p` (currently isolated) with the given sorted,
  /// duplicate-free neighbour list; every neighbour's list gains `p`.
  /// Returns the processor a live placement chose for `p`, or -1 when
  /// nothing placed it.
  virtual std::int32_t connectDemand(std::int32_t p,
                                     std::span<const std::int32_t> neighbors);

  /// Detaches demand `p`: removes every edge of `p` (both sides). The
  /// processor stays addressable — it simply has no neighbours, exactly
  /// like a demand that has departed. Disconnecting an isolated
  /// (never-connected or already-departed) demand is a no-op.
  virtual void disconnectDemand(std::int32_t p);

  /// Re-runs validateCommunicationAdjacency on the live adjacency — the
  /// post-mutation audit: after any mutation the graph must still be
  /// symmetric, loop-free, in-range and duplicate-free.
  void validateTopology() const;

  /// Rebalances hosted demands across physical processors. Placement is
  /// transport accounting, not protocol state, so the schedule is
  /// bit-identical with or without rebalancing. The default reports
  /// zero variances and moves nothing.
  virtual RebalanceOutcome rebalanceShards(
      const ShardRebalanceConfig& /*config*/) {
    return {};
  }

  /// Sets demand `demand`'s placement load weight — its live instance
  /// count, threaded in by the online solver as the dynamic universe
  /// grows each arrival's instances. Weighted loads feed placement
  /// (least-loaded choice), the rebalance planner and the variance
  /// accounting; they are wire accounting only and never change the
  /// schedule.
  virtual void setDemandWeight(std::int32_t /*demand*/,
                               std::int64_t /*weight*/) {}

  /// Publishes the current placement load into the attached metrics
  /// registry (net.shard_hosted_demands histogram +
  /// net.shard_load_variance gauge on a live sharded placement). The
  /// online solver calls this once per epoch boundary so the load
  /// time-series exists whether or not rebalancing is enabled.
  /// Read-only observation; never changes delivery behaviour.
  virtual void recordPlacementLoad() {}

 protected:
  /// Validates the adjacency (symmetric, loop-free, in-range,
  /// duplicate-free; throws CheckError otherwise) before any derived
  /// constructor reads it.
  explicit PlaneTransport(std::vector<std::vector<std::int32_t>> adjacency);

  /// The live neighbour list of `p`, unchecked: the broadcast and
  /// delivery hot loops index it with ids they already checked.
  const std::vector<std::int32_t>& adjacencyOf(std::int32_t p) const {
    return adjacency_[static_cast<std::size_t>(p)];
  }

  /// The round boundary once every message is staged: counts the round,
  /// delivers the plane into the inboxes, folds the round into stats_,
  /// bumps the counters and emits the "deliver" instant.
  void deliverRound();

  MessagePlane plane_;
  /// Mutable so a wire can refresh a per-processor field when read
  /// rather than every round (AlphaSynchronizer::stats).
  mutable NetworkStats stats_;

  // Telemetry plane (null when detached).
  Tracer* tracer_ = nullptr;
  bool trace_ = false;  ///< tracer present and enabled

 private:
  std::vector<std::vector<std::int32_t>> adjacency_;
  Counter* roundsCtr_ = nullptr;
  Counter* busyRoundsCtr_ = nullptr;
  Counter* messagesCtr_ = nullptr;
  Counter* silentRoundsCtr_ = nullptr;
};

/// `transport` as the plane transport whose live topology the online
/// path mutates; throws CheckError for any other Transport.
PlaneTransport& requirePlaneTransport(Transport& transport);

}  // namespace treesched
