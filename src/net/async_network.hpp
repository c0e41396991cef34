// Asynchronous, lossy physical network: a per-packet timeline simulator.
//
// Endpoints exchange packets over point-to-point links. Each transmission
// attempt samples a delay from the configured latency model and is lost
// i.i.d. with the configured drop probability. Delivery is made reliable
// by a stop-and-wait ack/retransmission scheme: the sender retransmits
// every `retransmitTimeout` time units until an acknowledgement arrives;
// acks travel (and can be dropped) like any other packet; receivers
// deduplicate, so each packet is delivered to the application exactly
// once. With dropProbability < 1 every packet is eventually delivered and
// acknowledged, so `flush()` terminates.
//
// Links are heterogeneous: `latencyOverrides` pins individual physical
// links (keyed by their unordered endpoint pair) to their own latency
// model on top of the global one — a slow trans-continental hop among
// fast metro links. Faulty duplicating links are modelled too: with
// `duplicateProbability` a delivered packet arrives a second time, and
// the receiver's dedup path must (and does) absorb it.
//
// All randomness is hash-keyed by (seed, packet id, attempt), so a run is
// a pure function of the seed: no processing order can perturb sampled
// delays or drop decisions.
//
// Packets never interact: every draw is keyed by the packet and the
// links model no contention (no bandwidth share, no queueing). So
// flush() runs each packet's own timeline — its attempts, deliveries,
// duplicate deliveries and acks, in (time, the packet's schedule order)
// — one packet after another on a small reused queue, and merges only
// the sums and the latest event time. Those are exactly what one global
// event queue over every packet produces (tests/net_test.cpp keeps such
// a queue as the reference). A link model with contention would couple
// the packets and need the global queue.
//
// Delivered application packets accumulate in one flat append-only log,
// in send order; `deliveries()` is a zero-copy span of it. Nothing reads
// the arrival order: the synchronizer stages each packet straight into
// the MessagePlane, which sorts every inbox into canonical order
// (dist/message.hpp), so there is no per-endpoint collation either.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dist/message.hpp"
#include "net/latency.hpp"

namespace treesched {

/// Pins one physical link (unordered endpoint pair) to its own latency
/// model; both directions of the link use it.
struct LinkLatencyOverride {
  std::int32_t endpointA = 0;
  std::int32_t endpointB = 0;
  LatencyConfig latency;
};

/// Physical-link behaviour shared by every link of the network.
struct AsyncLinkConfig {
  LatencyConfig latency;
  /// Per-link latency overrides on top of the global model. Endpoint
  /// pairs must be distinct links; validated at network construction.
  std::vector<LinkLatencyOverride> latencyOverrides;
  /// Probability that one transmission attempt (payload or ack) is lost.
  /// Must lie in [0, 0.9] — retransmission makes delivery reliable, the
  /// cap keeps expected attempt counts small and flush() fast.
  double dropProbability = 0.0;
  /// Probability that a delivered payload arrives a second time
  /// (duplicating-link fault, [0, 0.9]). The receiver's dedup path
  /// suppresses the copy; runs stay bit-identical.
  double duplicateProbability = 0.0;
  /// Retransmit if no ack after this long; 0 derives a per-link
  /// round-trip upper bound (2 * latencyUpperBound + base) from each
  /// link's own latency model — a slow override never inflates the
  /// timeout (and hence the virtual time) of the fast links around it.
  /// When set explicitly, one global timeout covers every link and must
  /// be >= every link's base latency (below that the sender would
  /// retransmit in a tight loop before any ack could round-trip).
  double retransmitTimeout = 0.0;
};

/// One application packet handed up to the receiving endpoint.
struct PhysicalDelivery {
  std::int32_t from = 0;  ///< sending endpoint
  std::int32_t to = 0;    ///< receiving endpoint
  Message payload;
};

class AsyncNetwork {
 public:
  AsyncNetwork(std::int32_t numEndpoints, const AsyncLinkConfig& config,
               std::uint64_t seed);

  std::int32_t numEndpoints() const {
    return static_cast<std::int32_t>(endpointLoad_.size());
  }

  /// Injects a packet at the current virtual time. Control packets carry
  /// synchronizer traffic: they ride the same lossy links but are not
  /// handed to the application inbox.
  void send(std::int32_t from, std::int32_t to, const Message& payload,
            bool control = false);

  /// Runs every packet sent since the last flush until it is delivered
  /// and acknowledged; returns the virtual time afterwards, the latest
  /// event of any packet.
  double flush();

  /// Advances the clock without any traffic (known-silent barrier
  /// rounds); no packet may be pending.
  void advanceTime(double delta);

  double now() const { return now_; }

  /// Application packets delivered since the last drain, to every
  /// endpoint, in send order. A zero-copy span into the delivery log,
  /// invalidated by the next flush()/drainDeliveries().
  std::span<const PhysicalDelivery> deliveries() const { return log_; }
  void drainDeliveries() { log_.clear(); }

  std::int64_t transmissions() const { return transmissions_; }
  /// The control-packet (synchronizer marker) share of transmissions().
  std::int64_t markerTransmissions() const { return markerTransmissions_; }
  std::int64_t retransmissions() const { return retransmissions_; }
  std::int64_t drops() const { return drops_; }
  /// Deliveries suppressed by the dedup path: retransmission races plus
  /// injected duplicating-link faults.
  std::int64_t duplicates() const { return duplicates_; }
  /// Physical deliveries handled per endpoint over the whole run —
  /// payload and control alike (markers are real load on a processor).
  const std::vector<std::int64_t>& endpointLoad() const {
    return endpointLoad_;
  }

 private:
  /// One packet sent since the last flush. Every pending packet starts
  /// at now(): advanceTime() refuses pending packets.
  struct Flight {
    std::int32_t from = 0;
    std::int32_t to = 0;
    Message payload;
    bool control = false;
    std::uint64_t id = 0;  ///< globally unique, keys the hash draws
    /// Index into overrides_ for this flight's link; -1 = global model.
    std::int32_t latencyOverride = -1;
  };

  enum class ArrivalKind : std::uint8_t { Deliver, DuplicateDeliver, Ack };

  /// A packet copy or an ack in flight on one packet's timeline.
  struct Arrival {
    double time = 0;
    std::uint32_t seq = 0;  ///< the packet's schedule order, breaks ties
    ArrivalKind kind = ArrivalKind::Deliver;
    std::int32_t attempt = 0;
  };

  struct ArrivalAfter {
    bool operator()(const Arrival& a, const Arrival& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Runs one flight's timeline from `start`, appending its first
  /// delivery to the log; returns its last event time.
  double runFlight(const Flight& flight, double start);
  bool chance(double probability, std::uint64_t packetId, std::int32_t attempt,
              std::uint64_t salt) const;
  double delay(const Flight& flight, std::int32_t attempt,
               std::uint64_t salt) const;
  const LatencyConfig& linkLatency(const Flight& flight) const;
  double timeoutFor(const Flight& flight) const;
  std::int32_t overrideIndex(std::int32_t a, std::int32_t b) const;

  AsyncLinkConfig config_;
  std::vector<LinkLatencyOverride> overrides_;  ///< validated, a < b
  std::uint64_t seed_ = 0;
  double timeout_ = 0;  ///< links on the global latency model
  /// Auto-derived per-override timeouts (aligned with overrides_); empty
  /// when an explicit global timeout is configured.
  std::vector<double> overrideTimeout_;
  double now_ = 0;
  std::uint64_t nextPacketId_ = 0;
  std::vector<Flight> flights_;  ///< sent since the last flush
  /// The running flight's pending arrivals (a heap), reused per flight.
  std::vector<Arrival> arrivals_;

  std::vector<PhysicalDelivery> log_;  ///< send order, since last drain

  std::vector<std::int64_t> endpointLoad_;
  std::int64_t transmissions_ = 0;
  std::int64_t markerTransmissions_ = 0;
  std::int64_t retransmissions_ = 0;
  std::int64_t drops_ = 0;
  std::int64_t duplicates_ = 0;
};

}  // namespace treesched
