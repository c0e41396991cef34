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
//  * the validated adjacency and its queries (neighbors,
//    currentNeighbors, numDemands);
//  * the MutableTopology splice: connectDemand checks the whole list
//    before it touches any row (a rejected call changes nothing), and
//    disconnectDemand removes both sides of every edge;
//  * the inboxes (inbox, appendActiveInboxes, attachRunner);
//  * the round accounting: NetworkStats plus the net.{rounds,busy_rounds,
//    messages} counters and the "deliver" instant of deliverRound(), and
//    the common part of endSilentRounds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dist/message.hpp"
#include "engine/message_plane.hpp"
#include "net/transport.hpp"

namespace treesched {

class Counter;

class PlaneTransport : public Transport, public MutableTopology {
 public:
  std::int32_t numProcessors() const override {
    return static_cast<std::int32_t>(adjacency_.size());
  }

  std::span<const std::int32_t> neighbors(std::int32_t p) const override;

  /// Advances `count` rounds in which no processor transmits. Inboxes are
  /// cleared; busyRounds is unchanged. A zero count changes nothing.
  void endSilentRounds(std::int64_t count) override;

  /// Messages delivered to `p` by the last round boundary.
  std::span<const Message> inbox(std::int32_t p) const override;

  void appendActiveInboxes(std::vector<std::int32_t>& out) const override;

  void attachRunner(ParallelRunner* runner) override {
    plane_.attachRunner(runner);
  }

  /// Publishes net.{rounds,busy_rounds,messages} counters into `metrics`
  /// and emits a "deliver" instant per busy round through `tracer`.
  /// Instruments are resolved here, once; the round hot loop stays
  /// allocation-free.
  void attachTelemetry(Tracer* tracer, MetricsRegistry* metrics) override;

  const NetworkStats& stats() const override { return stats_; }

  // ---- MutableTopology (the online churn engine, src/online/) ----
  //
  // Demands arrive and depart on a *running* transport: the plane, the
  // stats and the untouched adjacency lists all persist, so consecutive
  // epoch re-solves share one warmed-up transport. Both calls require a
  // round boundary (no staged traffic).

  /// Attaches demand `p` (currently isolated) with the given sorted,
  /// duplicate-free neighbour list; every neighbour's list gains `p`.
  void connectDemand(std::int32_t p,
                     std::span<const std::int32_t> neighbors) override;

  /// Detaches demand `p`: removes every edge of `p` (both sides). The
  /// processor stays addressable — it simply has no neighbours, exactly
  /// like a demand that has departed.
  void disconnectDemand(std::int32_t p) override;

  std::int32_t numDemands() const override { return numProcessors(); }

  std::span<const std::int32_t> currentNeighbors(
      std::int32_t demand) const override {
    return neighbors(demand);
  }

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
  NetworkStats stats_;

  // Telemetry plane (null when detached).
  Tracer* tracer_ = nullptr;
  bool trace_ = false;  ///< tracer present and enabled

 private:
  std::vector<std::vector<std::int32_t>> adjacency_;
  Counter* roundsCtr_ = nullptr;
  Counter* busyRoundsCtr_ = nullptr;
  Counter* messagesCtr_ = nullptr;
};

}  // namespace treesched
