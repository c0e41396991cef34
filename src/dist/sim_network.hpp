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
#include <utility>
#include <vector>

#include "dist/message.hpp"
#include "net/plane_transport.hpp"

namespace treesched {

/// Deterministic message bus over an undirected communication graph.
///
/// Construction validates the adjacency (symmetric, loop-free, in-range,
/// duplicate-free) and throws CheckError otherwise. The graph is live
/// (the online churn engine splices it between rounds): the graph, its
/// splice, the inboxes and the round accounting are the plane-transport
/// core's (net/plane_transport.hpp), whose placement hooks SimNetwork
/// leaves at their no-op defaults.
class SimNetwork : public PlaneTransport {
 public:
  explicit SimNetwork(std::vector<std::vector<std::int32_t>> adjacency)
      : PlaneTransport(std::move(adjacency)) {}

  /// Queues `message` for delivery to every neighbour of `message.from`
  /// at the end of the current round. O(1): the plane borrows the
  /// sender's adjacency list (MessagePlane::stageFanout) and scatters the
  /// message to each neighbour at the round boundary.
  void broadcast(const Message& message) override;

  /// Ends the current round: delivers all queued messages into the
  /// recipients' inboxes (sorted canonically) and updates the stats.
  void endRound() override { deliverRound(); }
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
