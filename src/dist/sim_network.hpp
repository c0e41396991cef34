// Round-synchronous simulated message passing (paper §5).
//
// The simulator models the synchronous CONGEST-style setting of the paper:
// computation proceeds in global rounds; a message broadcast in round r is
// delivered to every neighbour's mailbox at the end of the round and can be
// read in round r+1. Inboxes are sorted canonically (sender, instance) so
// that every processor consumes messages in a deterministic order — the
// keystone of bit-identical equivalence with the centralized engine.
//
// Delivery runs over the flat MessagePlane (engine/message_plane.hpp):
// each broadcast stages one entry (the message plus its sender's
// adjacency list) and the round boundary scatters it into contiguous
// per-processor inbox segments — the round hot loop performs no
// per-message heap allocation.
//
// SimNetwork is the reliable reference implementation of the Transport
// interface (net/transport.hpp); the asynchronous lossy transport
// (net/synchronizer.hpp) must be observationally equivalent to it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dist/message.hpp"
#include "engine/message_plane.hpp"
#include "net/transport.hpp"

namespace treesched {

class Counter;

/// Deterministic message bus over an undirected communication graph.
///
/// Construction validates the adjacency (symmetric, loop-free, in-range,
/// duplicate-free) and throws CheckError otherwise. The graph is live:
/// SimNetwork is the reference implementation of the MutableTopology
/// capability (net/transport.hpp) alongside the Transport contract.
class SimNetwork : public Transport, public MutableTopology {
 public:
  explicit SimNetwork(std::vector<std::vector<std::int32_t>> adjacency);

  std::int32_t numProcessors() const override {
    return static_cast<std::int32_t>(adjacency_.size());
  }

  std::span<const std::int32_t> neighbors(std::int32_t p) const override;

  /// Queues `message` for delivery to every neighbour of `message.from`
  /// at the end of the current round. O(1): the plane borrows the
  /// sender's adjacency list (MessagePlane::stageFanout) and scatters the
  /// message to each neighbour at the round boundary.
  void broadcast(const Message& message) override;

  /// Ends the current round: delivers all queued messages into the
  /// recipients' inboxes (sorted canonically) and updates the stats.
  void endRound() override;

  /// Advances `count` rounds in which no processor transmits. Inboxes are
  /// cleared; busyRounds is unchanged.
  void endSilentRounds(std::int64_t count) override;

  /// Messages delivered to `p` by the last endRound().
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
  // Demands arrive and depart on a *running* bus: the plane, the stats
  // and the untouched adjacency lists all persist, so consecutive epoch
  // re-solves share one warmed-up transport. Both calls require a round
  // boundary (no staged traffic).

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

 private:
  std::vector<std::vector<std::int32_t>> adjacency_;
  MessagePlane plane_;
  NetworkStats stats_;

  // Telemetry plane (null when detached).
  Tracer* tracer_ = nullptr;
  bool trace_ = false;  ///< tracer present and enabled
  Counter* roundsCtr_ = nullptr;
  Counter* busyRoundsCtr_ = nullptr;
  Counter* messagesCtr_ = nullptr;
};

/// The protocol's communication graph: processors (demands) are adjacent
/// iff they share an accessible network/resource (paper §5: neighbours can
/// exchange messages because their demands may compete for edges of that
/// network). `access[d]` lists the networks demand d may use; ids must lie
/// in [0, numNetworks). Adjacency lists come back sorted and duplicate-free.
std::vector<std::vector<std::int32_t>> communicationGraph(
    const std::vector<std::vector<std::int32_t>>& access,
    std::int32_t numNetworks);

}  // namespace treesched
