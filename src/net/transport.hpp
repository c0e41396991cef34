// Transport abstraction between the §5 protocol and the wire.
//
// The protocol engine (dist/protocol.cpp) is written against the
// round-synchronous programming model: broadcast to neighbours, end the
// round, read the inbox. A Transport supplies that model; how the bits
// actually move is the implementation's business. Two implementations
// exist today, both on one core (net/plane_transport.hpp) that owns the
// live graph, the inboxes and the round accounting:
//
//  * SimNetwork (dist/sim_network.hpp) — the original reliable
//    round-synchronous bus: a round is an atomic delivery step.
//  * AlphaSynchronizer (net/synchronizer.hpp) — an alpha-synchronizer
//    running each round over an asynchronous, lossy, latency-modelled
//    physical network (net/async_network.hpp), optionally sharded so one
//    simulated processor hosts many demands (net/shard.hpp).
//
// The online churn engine (src/online/) also splices the live graph
// between rounds; that capability is the core's (PlaneTransport), not
// part of this engine-facing interface.
//
// The contract every Transport must honour for protocol correctness:
// a message broadcast in round r is present in every neighbour's inbox
// after endRound() — exactly once, with inboxes sorted canonically
// (canonicalMessageLess) — and in no other round. Any implementation
// honouring it runs the protocol bit-identically to the synchronous bus.
//
// A round may declare its possible senders (declareSenders) so that a
// synchronizer waits only for them. Every receiver must be able to
// compute the declared set from what it already holds — the fixed
// schedule, earlier inboxes and the promises earlier safe markers
// carried — never from who actually sends, which is what the round
// itself reveals. Likewise a round may be charged silent
// (endSilentRounds) only when every receiver can compute its silence.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dist/message.hpp"

namespace treesched {

class ParallelRunner;
class Tracer;
class MetricsRegistry;

/// Communication accounting of one protocol run. The first block is
/// filled by every transport; the async/lossy extensions stay zero/empty
/// on the reliable round-synchronous bus.
struct NetworkStats {
  std::int64_t rounds = 0;      ///< synchronous (protocol-level) rounds
  std::int64_t busyRounds = 0;  ///< rounds that delivered >= 1 message
  /// The share of `rounds` charged by endSilentRounds: no transmission at
  /// all, not even a safe marker. The rest are endRound() boundaries.
  std::int64_t silentRounds = 0;
  std::int64_t messages = 0;    ///< demand-level point-to-point deliveries
  std::int64_t payload = 0;     ///< total delivered payload (units of M)
  std::int32_t maxMessagePayload = 0;  ///< largest single message

  // ---- Async/lossy transport extensions ----
  double virtualTime = 0;  ///< simulated clock at the end of the run
  /// Physical transmission attempts (payload + control), incl. retries.
  std::int64_t transmissions = 0;
  /// The control (safe-marker) share of `transmissions`.
  std::int64_t markerTransmissions = 0;
  std::int64_t retransmissions = 0;  ///< attempts after the first, per packet
  std::int64_t drops = 0;            ///< attempts lost in flight (incl. acks)
  /// Deliveries suppressed by the receiver's dedup path: retransmission
  /// races and duplicating-link faults (AsyncLinkConfig::
  /// duplicateProbability). Zero on the reliable bus.
  std::int64_t duplicates = 0;
  /// Physical deliveries handled per simulated processor (sharded runs:
  /// one entry per shard processor, not per demand). Empty on the bus.
  std::vector<std::int64_t> processorLoad;

  // ---- Message-plane allocation accounting (engine/message_plane.hpp) ----
  std::int64_t planeGrowthEvents = 0;  ///< inbox-buffer growths, whole run
  /// Round index of the last inbox-buffer growth; -1 when the plane never
  /// grew. Every later round ran allocation-free.
  std::int64_t planeLastGrowthRound = -1;
};

/// The protocol's view of the network: one endpoint per demand, broadcast
/// delivery to communication-graph neighbours at round boundaries.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::int32_t numProcessors() const = 0;

  virtual std::span<const std::int32_t> neighbors(std::int32_t p) const = 0;

  /// Queues `message` for delivery to every neighbour of `message.from`
  /// at the end of the current round.
  virtual void broadcast(const Message& message) = 0;

  /// Promises that only `senders` (any order, repeats allowed; calls
  /// accumulate) broadcast in the current round; an undeclared round may
  /// hear from every demand. The set must follow from what every
  /// receiver already holds; a promise of silence that a sender's earlier
  /// safe marker carried counts among it. The default ignores it.
  virtual void declareSenders(std::span<const std::int32_t> senders);

  /// Ends the current round: every message broadcast since the previous
  /// boundary is in the recipients' inboxes (sorted canonically) after
  /// this returns.
  virtual void endRound() = 0;

  /// Advances `count` rounds in which no processor transmits, a silence
  /// every receiver can compute. Inboxes are cleared; busyRounds is
  /// unchanged and silentRounds grows by `count`.
  virtual void endSilentRounds(std::int64_t count) = 0;

  /// Messages delivered to `p` by the last endRound(). A zero-copy view
  /// into the transport's delivery buffer; invalidated by the next
  /// endRound()/endSilentRounds().
  virtual std::span<const Message> inbox(std::int32_t p) const = 0;

  /// Appends (ascending, duplicate-free) every processor whose inbox is
  /// non-empty after the last endRound(). The default scans all
  /// processors; plane-backed transports override with the O(active)
  /// list, which is what lets the protocol's round loops iterate only
  /// processors that actually received something.
  virtual void appendActiveInboxes(std::vector<std::int32_t>& out) const;

  /// Attaches a thread pool the transport may use to parallelize round
  /// delivery (nullptr detaches; the default ignores it). The runner must
  /// stay alive until detached.
  virtual void attachRunner(ParallelRunner* runner);

  /// Attaches the telemetry plane (obs/): the transport publishes its
  /// round/message accounting into `metrics` and may emit delivery trace
  /// events through `tracer`. Either may be null; nullptr/nullptr
  /// detaches; the default ignores both. Telemetry is strictly
  /// read-only observation — attaching it never changes delivery
  /// behaviour (the bit-identity gates run with live sinks attached).
  /// Both objects must stay alive until detached.
  virtual void attachTelemetry(Tracer* tracer, MetricsRegistry* metrics);

  virtual const NetworkStats& stats() const = 0;
};

/// Validates a communication adjacency: symmetric, loop-free, entries in
/// range, duplicate-free. Throws CheckError otherwise. Every transport
/// construction funnels through this. Rows may be unsorted; the cost is
/// linear in the edge count plus a sort of each unsorted row.
void validateCommunicationAdjacency(
    const std::vector<std::vector<std::int32_t>>& adjacency);

}  // namespace treesched
