// Unit tests of the net/ building blocks: latency models, the lossy
// AsyncNetwork (per-packet timelines, gated bit for bit against a global
// event queue, with the delivery log in send order), and the
// alpha-synchronizer's Transport behaviour (mirroring the SimNetwork
// tests in dist_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <queue>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "net/async_network.hpp"
#include "net/latency.hpp"
#include "net/runner.hpp"
#include "net/synchronizer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace treesched {
namespace {

// ---- Latency models ----

TEST(Latency, FixedIgnoresQuantile) {
  LatencyConfig cfg;
  cfg.model = LatencyModel::Fixed;
  cfg.base = 2.5;
  EXPECT_DOUBLE_EQ(sampleLatency(cfg, 0.0), 2.5);
  EXPECT_DOUBLE_EQ(sampleLatency(cfg, 0.99), 2.5);
  EXPECT_DOUBLE_EQ(latencyUpperBound(cfg), 2.5);
}

TEST(Latency, UniformSpansInterval) {
  LatencyConfig cfg;
  cfg.model = LatencyModel::Uniform;
  cfg.base = 1.0;
  cfg.spread = 4.0;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double latency = sampleLatency(cfg, rng.nextDouble());
    EXPECT_GE(latency, 1.0);
    EXPECT_LT(latency, 5.0);
  }
  EXPECT_DOUBLE_EQ(latencyUpperBound(cfg), 5.0);
}

TEST(Latency, HeavyTailBoundedByCapAndAboveBase) {
  LatencyConfig cfg;
  cfg.model = LatencyModel::HeavyTail;
  cfg.base = 2.0;
  cfg.tailShape = 1.2;
  cfg.tailCap = 16.0;
  Rng rng(9);
  double maxSeen = 0;
  for (int i = 0; i < 5000; ++i) {
    const double latency = sampleLatency(cfg, rng.nextDouble());
    EXPECT_GE(latency, cfg.base);
    EXPECT_LE(latency, latencyUpperBound(cfg));
    maxSeen = std::max(maxSeen, latency);
  }
  // Heavy tail: some sample lands far above the base.
  EXPECT_GT(maxSeen, 4 * cfg.base);
}

TEST(Latency, RejectsMalformedConfigs) {
  LatencyConfig cfg;
  cfg.base = 0;
  EXPECT_THROW(validateLatencyConfig(cfg), CheckError);
  cfg.base = 1;
  cfg.tailShape = 0;
  EXPECT_THROW(validateLatencyConfig(cfg), CheckError);
  cfg.tailShape = 1;
  cfg.tailCap = 0.5;
  EXPECT_THROW(validateLatencyConfig(cfg), CheckError);
}

TEST(Latency, UnitIntervalCoversRange) {
  EXPECT_EQ(unitInterval(0), 0.0);
  EXPECT_LT(unitInterval(~0ULL), 1.0);
  EXPECT_GT(unitInterval(~0ULL), 0.999);
}

// ---- AsyncNetwork ----

AsyncLinkConfig losslessLink() {
  AsyncLinkConfig link;
  link.latency.base = 1.0;
  return link;
}

// Packets delivered to `endpoint` since the last drain, in send order:
// the network's delivery log filtered by receiving endpoint.
std::vector<PhysicalDelivery> deliveredTo(const AsyncNetwork& net,
                                          std::int32_t endpoint) {
  std::vector<PhysicalDelivery> result;
  for (const PhysicalDelivery& delivery : net.deliveries()) {
    if (delivery.to == endpoint) result.push_back(delivery);
  }
  return result;
}

TEST(AsyncNetwork, LosslessDeliveryTakesOneLatency) {
  AsyncNetwork net(2, losslessLink(), 1);
  net.send(0, 1, {MessageKind::MisActive, 0, 7, 0.0});
  const double time = net.flush();
  EXPECT_DOUBLE_EQ(time, 1.0 + 1.0);  // delivery + ack round trip
  ASSERT_EQ(deliveredTo(net, 1).size(), 1u);
  EXPECT_EQ(deliveredTo(net, 1)[0].payload.instance, 7);
  EXPECT_TRUE(deliveredTo(net, 0).empty());
  EXPECT_EQ(net.transmissions(), 1);
  EXPECT_EQ(net.retransmissions(), 0);
  EXPECT_EQ(net.drops(), 0);
}

TEST(AsyncNetwork, LossyDeliveryIsExactlyOnce) {
  AsyncLinkConfig link = losslessLink();
  link.dropProbability = 0.5;
  link.retransmitTimeout = 3.0;
  AsyncNetwork net(2, link, 42);
  constexpr int kPackets = 200;
  for (int i = 0; i < kPackets; ++i) {
    net.send(0, 1, {MessageKind::MisActive, 0, i, 0.0});
  }
  net.flush();
  // Reliable exactly-once delivery despite heavy loss...
  ASSERT_EQ(deliveredTo(net, 1).size(), static_cast<std::size_t>(kPackets));
  std::vector<InstanceId> seen;
  for (const PhysicalDelivery& d : deliveredTo(net, 1)) {
    seen.push_back(d.payload.instance);
  }
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kPackets; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
  }
  // ...paid for in drops and retransmissions.
  EXPECT_GT(net.drops(), 0);
  EXPECT_GT(net.retransmissions(), 0);
  EXPECT_EQ(net.transmissions(), kPackets + net.retransmissions());
}

TEST(AsyncNetwork, DeterministicAcrossRuns) {
  AsyncLinkConfig link;
  link.latency.model = LatencyModel::HeavyTail;
  link.dropProbability = 0.3;
  const auto run = [&link]() {
    AsyncNetwork net(3, link, 77);
    for (int i = 0; i < 50; ++i) {
      net.send(i % 3, (i + 1) % 3, {MessageKind::MisActive, 0, i, 0.0});
    }
    const double time = net.flush();
    return std::tuple(time, net.transmissions(), net.drops(),
                      deliveredTo(net, 1).size());
  };
  EXPECT_EQ(run(), run());
}

TEST(AsyncNetwork, ControlPacketsStayOutOfInboxesButCount) {
  AsyncNetwork net(2, losslessLink(), 1);
  net.send(0, 1, Message{}, /*control=*/true);
  net.flush();
  EXPECT_TRUE(deliveredTo(net, 1).empty());
  EXPECT_EQ(net.transmissions(), 1);
  EXPECT_EQ(net.endpointLoad()[1], 1);
}

TEST(AsyncNetwork, RejectsInvalidConfig) {
  AsyncLinkConfig link;
  link.dropProbability = 0.95;  // above the reliability cap
  EXPECT_THROW(AsyncNetwork(2, link, 1), CheckError);
  link.dropProbability = -0.1;
  EXPECT_THROW(AsyncNetwork(2, link, 1), CheckError);
  link.dropProbability = 0;
  link.duplicateProbability = 0.95;
  EXPECT_THROW(AsyncNetwork(2, link, 1), CheckError);
}

// ---- Per-link heterogeneous latency ----

TEST(AsyncNetwork, PerLinkOverrideSlowsExactlyThatLink) {
  AsyncLinkConfig link = losslessLink();  // global base 1.0
  LinkLatencyOverride slow;
  slow.endpointA = 0;
  slow.endpointB = 1;
  slow.latency.base = 50.0;
  link.latencyOverrides.push_back(slow);

  // Fast link 0 -> 2 is unaffected; slow link 0 -> 1 takes 50 per hop.
  AsyncNetwork net(3, link, 1);
  net.send(0, 2, {MessageKind::MisActive, 0, 1, 0.0});
  const double fastTime = net.flush();
  EXPECT_DOUBLE_EQ(fastTime, 2.0);  // delivery + ack on the global model
  net.drainDeliveries();

  net.send(0, 1, {MessageKind::MisActive, 0, 2, 0.0});
  const double slowTime = net.flush();
  EXPECT_DOUBLE_EQ(slowTime, fastTime + 100.0);  // 50 out + 50 ack back
  ASSERT_EQ(deliveredTo(net, 1).size(), 1u);

  // The override is keyed by the unordered pair: the reverse direction
  // rides the same slow link.
  net.drainDeliveries();
  net.send(1, 0, {MessageKind::MisActive, 1, 3, 0.0});
  EXPECT_DOUBLE_EQ(net.flush(), slowTime + 100.0);
}

TEST(AsyncNetwork, PerLinkOverrideValidation) {
  AsyncLinkConfig link = losslessLink();
  LinkLatencyOverride bad;
  bad.endpointA = 0;
  bad.endpointB = 0;  // a link needs two endpoints
  link.latencyOverrides.push_back(bad);
  EXPECT_THROW(AsyncNetwork(2, link, 1), CheckError);

  link.latencyOverrides.clear();
  LinkLatencyOverride outOfRange;
  outOfRange.endpointA = 0;
  outOfRange.endpointB = 7;
  link.latencyOverrides.push_back(outOfRange);
  EXPECT_THROW(AsyncNetwork(2, link, 1), CheckError);

  link.latencyOverrides.clear();
  LinkLatencyOverride first;
  first.endpointA = 0;
  first.endpointB = 1;
  LinkLatencyOverride duplicate;
  duplicate.endpointA = 1;
  duplicate.endpointB = 0;  // same physical link after normalization
  link.latencyOverrides.push_back(first);
  link.latencyOverrides.push_back(duplicate);
  EXPECT_THROW(AsyncNetwork(2, link, 1), CheckError);

  // An explicit timeout below the slowest override base would tight-loop.
  link.latencyOverrides.clear();
  LinkLatencyOverride slow;
  slow.endpointA = 0;
  slow.endpointB = 1;
  slow.latency.base = 10.0;
  link.latencyOverrides.push_back(slow);
  link.retransmitTimeout = 2.0;
  EXPECT_THROW(AsyncNetwork(2, link, 1), CheckError);
  link.retransmitTimeout = 10.0;
  AsyncNetwork ok(2, link, 1);
  EXPECT_EQ(ok.numEndpoints(), 2);
}

TEST(AsyncNetwork, AutoTimeoutIsDerivedPerLink) {
  // Regression on virtual time: the auto timeout used to be one global
  // value covering the slowest link of the network, so a slow override
  // inflated every retransmission wait on the fast links. It is now
  // derived per link — an override pinning an *unused* link pair to a
  // far slower model must leave the fast-link traffic untouched.
  AsyncLinkConfig link = losslessLink();  // global base 1.0
  link.dropProbability = 0.5;
  const auto run = [](const AsyncLinkConfig& cfg) {
    AsyncNetwork net(3, cfg, 42);
    for (int i = 0; i < 40; ++i) {
      net.send(0, 1, {MessageKind::MisActive, 0, i, 0.0});
    }
    const double time = net.flush();
    return std::pair(time, net.retransmissions());
  };
  const auto baseline = run(link);
  ASSERT_GT(baseline.second, 0);  // the timeout path was exercised

  LinkLatencyOverride slow;
  slow.endpointA = 0;
  slow.endpointB = 2;  // never transmits below
  slow.latency.base = 200.0;
  link.latencyOverrides.push_back(slow);
  const auto withUnusedSlowLink = run(link);
  EXPECT_EQ(withUnusedSlowLink.first, baseline.first);
  EXPECT_EQ(withUnusedSlowLink.second, baseline.second);
  // With the old global derivation a single retransmission would already
  // have pushed virtual time past the slow link's timeout.
  EXPECT_LT(withUnusedSlowLink.first, 200.0);
}

TEST(AsyncNetwork, PerLinkTimeoutKeepsProtocolVirtualTimeFlat) {
  // Same regression at the NetworkStats level: demands 0 and 1 share
  // network 0, demand 2 sits alone on network 1, so the only physical
  // link is (0, 1) and an override on (0, 2) is dead weight. The
  // protocol's reported virtualTime must be bit-identical with and
  // without it.
  TreeProblem problem;
  problem.numVertices = 4;
  problem.networks.push_back(
      TreeNetwork(0, 4, {{0, 1}, {1, 2}, {2, 3}}));
  problem.networks.push_back(
      TreeNetwork(1, 4, {{0, 2}, {2, 1}, {1, 3}}));
  problem.demands.push_back({0, 0, 3, 5.0, 1.0});
  problem.demands.push_back({1, 1, 2, 3.0, 1.0});
  problem.demands.push_back({2, 0, 3, 4.0, 1.0});
  problem.access = {{0}, {0}, {1}};
  problem.validate();

  DistributedOptions options;
  options.seed = 5;
  options.misRoundBudget = 3;
  options.stepsPerStage = 2;
  AsyncConfig net;
  net.seed = 77;
  net.link.latency.base = 1.0;
  net.link.dropProbability = 0.3;
  const DistributedResult fast = runAsyncUnitTree(problem, options, net);
  ASSERT_GT(fast.network.retransmissions, 0);

  LinkLatencyOverride slow;
  slow.endpointA = 0;
  slow.endpointB = 2;
  slow.latency.base = 500.0;
  net.link.latencyOverrides.push_back(slow);
  const DistributedResult withUnused =
      runAsyncUnitTree(problem, options, net);
  EXPECT_EQ(withUnused.network.virtualTime, fast.network.virtualTime);
  EXPECT_EQ(withUnused.network.retransmissions,
            fast.network.retransmissions);
  EXPECT_EQ(withUnused.solution.instances, fast.solution.instances);
}

TEST(AsyncNetwork, AutoTimeoutCoversSlowestOverride) {
  // With the auto-derived timeout, a lossless network must never
  // retransmit, even when an override is far slower than the global
  // model (a too-short timeout would resend before the slow ack lands).
  AsyncLinkConfig link = losslessLink();
  LinkLatencyOverride slow;
  slow.endpointA = 0;
  slow.endpointB = 1;
  slow.latency.base = 40.0;
  link.latencyOverrides.push_back(slow);
  AsyncNetwork net(2, link, 3);
  for (int i = 0; i < 10; ++i) {
    net.send(0, 1, {MessageKind::MisActive, 0, i, 0.0});
  }
  net.flush();
  EXPECT_EQ(deliveredTo(net, 1).size(), 10u);
  EXPECT_EQ(net.retransmissions(), 0);
}

// ---- Duplicating-link faults ----

TEST(AsyncNetwork, DuplicatingLinkDeliversExactlyOnce) {
  AsyncLinkConfig link = losslessLink();
  link.duplicateProbability = 0.5;
  AsyncNetwork net(2, link, 21);
  constexpr int kPackets = 200;
  for (int i = 0; i < kPackets; ++i) {
    net.send(0, 1, {MessageKind::MisActive, 0, i, 0.0});
  }
  net.flush();
  // The dedup path suppressed every duplicate...
  ASSERT_EQ(deliveredTo(net, 1).size(), static_cast<std::size_t>(kPackets));
  std::vector<InstanceId> seen;
  for (const PhysicalDelivery& d : deliveredTo(net, 1)) {
    seen.push_back(d.payload.instance);
  }
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kPackets; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
  }
  // ...and the faults actually fired.
  EXPECT_GT(net.duplicates(), 0);
  EXPECT_LT(net.duplicates(), kPackets);
}

// ---- Differential gate: per-packet timelines vs one global queue ----

// The reference for AsyncNetwork's per-packet timelines: a minimal
// simulator of the same wire with every packet's attempts, deliveries,
// duplicate deliveries and acks on one priority queue in (time, schedule
// order); a retransmit timer the ack cancelled is popped and dropped
// without touching the clock. Its hash salts 1–6 are async_network.cpp's:
// payload drop, payload delay, ack drop, ack delay, duplicate draw,
// duplicate delay.
class GlobalQueueNetwork {
 public:
  GlobalQueueNetwork(std::int32_t endpoints, const AsyncLinkConfig& config,
                     std::uint64_t seed)
      : endpointLoad(static_cast<std::size_t>(endpoints), 0),
        config_(config),
        seed_(seed) {}

  void send(std::int32_t from, std::int32_t to, const Message& payload,
            bool control) {
    flights_.push_back({from, to, payload, control, nextPacketId_++});
    schedule(now, Kind::Attempt, flights_.size() - 1, 0);
  }

  double flush() {
    while (!queue_.empty()) {
      const Event event = queue_.top();
      queue_.pop();
      Flight& flight = flights_[event.flight];
      if (event.kind != Kind::Attempt) --flight.inFlight;
      if (event.kind == Kind::Attempt && flight.acked) continue;
      now = std::max(now, event.time);
      switch (event.kind) {
        case Kind::Attempt:
          ++transmissions;
          if (flight.control) ++markerTransmissions;
          if (event.attempt > 0) ++retransmissions;
          if (chance(config_.dropProbability, flight, event.attempt, 1)) {
            ++drops;
          } else {
            schedule(now + delay(flight, event.attempt, 2), Kind::Deliver,
                     event.flight, event.attempt);
          }
          schedule(now + timeout(flight), Kind::Attempt, event.flight,
                   event.attempt + 1);
          break;
        case Kind::Deliver:
        case Kind::DuplicateDeliver:
          if (!flight.delivered) {
            flight.delivered = true;
            ++endpointLoad[static_cast<std::size_t>(flight.to)];
            if (!flight.control) {
              log.push_back(
                  {flight.id, {flight.from, flight.to, flight.payload}});
            }
            if (event.kind == Kind::Deliver &&
                chance(config_.duplicateProbability, flight, event.attempt,
                       5)) {
              schedule(now + delay(flight, event.attempt, 6),
                       Kind::DuplicateDeliver, event.flight, event.attempt);
            }
          } else {
            ++duplicates;
          }
          if (chance(config_.dropProbability, flight, event.attempt, 3)) {
            ++drops;
          } else {
            schedule(now + delay(flight, event.attempt, 4), Kind::Ack,
                     event.flight, event.attempt);
          }
          break;
        case Kind::Ack:
          flight.acked = true;
          break;
      }
    }
    flights_.clear();
    return now;
  }

  double now = 0;
  /// Deliveries in the order the queue popped them, with their packet ids.
  std::vector<std::pair<std::uint64_t, PhysicalDelivery>> log;
  std::vector<std::int64_t> endpointLoad;
  std::int64_t transmissions = 0;
  std::int64_t markerTransmissions = 0;
  std::int64_t retransmissions = 0;
  std::int64_t drops = 0;
  std::int64_t duplicates = 0;
  /// The most copies and acks of one packet in flight at once.
  std::int32_t mostInFlight = 0;

 private:
  enum class Kind { Attempt, Deliver, DuplicateDeliver, Ack };
  struct Event {
    double time;
    std::uint64_t seq;
    Kind kind;
    std::size_t flight;
    std::int32_t attempt;
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      return std::pair(a.time, a.seq) > std::pair(b.time, b.seq);
    }
  };
  struct Flight {
    std::int32_t from;
    std::int32_t to;
    Message payload;
    bool control;
    std::uint64_t id;
    bool delivered = false;
    bool acked = false;
    std::int32_t inFlight = 0;
  };

  void schedule(double time, Kind kind, std::size_t flight,
                std::int32_t attempt) {
    queue_.push({time, nextSeq_++, kind, flight, attempt});
    if (kind != Kind::Attempt) {
      mostInFlight = std::max(mostInFlight, ++flights_[flight].inFlight);
    }
  }
  const LatencyConfig& latency(const Flight& flight) const {
    for (const LinkLatencyOverride& o : config_.latencyOverrides) {
      if (std::minmax(o.endpointA, o.endpointB) ==
          std::minmax(flight.from, flight.to)) {
        return o.latency;
      }
    }
    return config_.latency;
  }
  double timeout(const Flight& flight) const {
    if (config_.retransmitTimeout > 0) return config_.retransmitTimeout;
    const LatencyConfig& link = latency(flight);
    return 2 * latencyUpperBound(link) + link.base;
  }
  bool chance(double probability, const Flight& flight, std::int32_t attempt,
              std::uint64_t salt) const {
    return probability > 0 &&
           unitInterval(keyedHash(seed_, flight.id,
                                  static_cast<std::uint64_t>(attempt),
                                  salt)) < probability;
  }
  double delay(const Flight& flight, std::int32_t attempt,
               std::uint64_t salt) const {
    return sampleLatency(
        latency(flight),
        unitInterval(keyedHash(seed_, flight.id,
                               static_cast<std::uint64_t>(attempt), salt)));
  }

  AsyncLinkConfig config_;
  std::uint64_t seed_;
  std::uint64_t nextPacketId_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::vector<Flight> flights_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
};

/// Bit-for-bit: every counter, the endpoint loads and the clock; the
/// delivery log element for element, in send (packet id) order.
void expectSameWire(const AsyncNetwork& net, const GlobalQueueNetwork& ref) {
  EXPECT_EQ(net.now(), ref.now);
  EXPECT_EQ(net.transmissions(), ref.transmissions);
  EXPECT_EQ(net.markerTransmissions(), ref.markerTransmissions);
  EXPECT_EQ(net.retransmissions(), ref.retransmissions);
  EXPECT_EQ(net.drops(), ref.drops);
  EXPECT_EQ(net.duplicates(), ref.duplicates);
  EXPECT_EQ(net.endpointLoad(), ref.endpointLoad);
  auto sent = ref.log;
  std::sort(sent.begin(), sent.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(net.deliveries().size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const PhysicalDelivery& got = net.deliveries()[i];
    const PhysicalDelivery& want = sent[i].second;
    EXPECT_EQ(std::tuple(got.from, got.to, got.payload.kind,
                         got.payload.from, got.payload.instance,
                         got.payload.value),
              std::tuple(want.from, want.to, want.payload.kind,
                         want.payload.from, want.payload.instance,
                         want.payload.value))
        << "delivery " << i;
  }
}

/// Several send / flush / advanceTime cycles of under `maxPackets` random
/// packets each (a third of them control) between `endpoints` endpoints,
/// compared after every flush and every clock advance; the log is drained
/// every other cycle. Returns the reference's most copies and acks of one
/// packet in flight.
std::int32_t runBothWires(const AsyncLinkConfig& link, std::int32_t endpoints,
                          std::uint64_t seed, std::uint64_t maxPackets = 20) {
  AsyncNetwork net(endpoints, link, seed);
  GlobalQueueNetwork ref(endpoints, link, seed);
  Rng rng(seed);
  for (int cycle = 0; cycle < 4; ++cycle) {
    const auto packets = rng.nextBounded(maxPackets);
    for (std::uint64_t i = 0; i < packets; ++i) {
      const auto from = static_cast<std::int32_t>(rng.nextBounded(
          static_cast<std::uint64_t>(endpoints)));
      const auto to = static_cast<std::int32_t>(
          (from + 1 + static_cast<std::int32_t>(rng.nextBounded(
                          static_cast<std::uint64_t>(endpoints - 1)))) %
          endpoints);
      const Message payload{MessageKind::MisActive, from,
                            static_cast<InstanceId>(i), 0.5 * cycle};
      const bool control = rng.nextBounded(3) == 0;
      net.send(from, to, payload, control);
      ref.send(from, to, payload, control);
    }
    EXPECT_EQ(net.flush(), ref.flush());
    expectSameWire(net, ref);
    const double gap = std::array{0.0, 0.25, 3.0}[rng.nextBounded(3)];
    net.advanceTime(gap);
    ref.now += gap;
    expectSameWire(net, ref);
    if (cycle % 2 == 1) {
      net.drainDeliveries();
      ref.log.clear();
    }
  }
  return ref.mostInFlight;
}

LatencyConfig randomLatency(Rng& rng) {
  LatencyConfig latency;
  latency.model = std::array{LatencyModel::Fixed, LatencyModel::Uniform,
                             LatencyModel::HeavyTail}[rng.nextBounded(3)];
  latency.base = std::array{0.5, 1.0, 2.0, 4.0}[rng.nextBounded(4)];
  latency.spread = 3.0;
  latency.tailShape = 1.5;
  latency.tailCap = std::array{4.0, 64.0}[rng.nextBounded(2)];
  return latency;
}

TEST(AsyncNetworkTimelines, MatchOneGlobalEventQueue) {
  constexpr std::int32_t kEndpoints = 6;
  for (std::uint64_t trial = 0; trial < 120; ++trial) {
    Rng rng(1000 + trial);
    AsyncLinkConfig link;
    link.latency = randomLatency(rng);
    link.dropProbability =
        std::array{0.0, 0.05, 0.5, 0.9}[rng.nextBounded(4)];
    link.duplicateProbability = rng.nextBool() ? 0.3 : 0.0;
    double slowestBase = link.latency.base;
    const auto overrides = rng.nextBounded(3);
    for (std::int32_t k = 1; k <= static_cast<std::int32_t>(overrides); ++k) {
      LinkLatencyOverride entry;
      entry.endpointA = k;
      entry.endpointB = k - 1;
      entry.latency = randomLatency(rng);
      slowestBase = std::max(slowestBase, entry.latency.base);
      link.latencyOverrides.push_back(entry);
    }
    // Auto per-link timeouts; the slowest base, so a timer ties with the
    // arrivals of a Fixed link; or hotspot_async's explicit 16.
    link.retransmitTimeout =
        std::array{0.0, slowestBase, 16.0}[rng.nextBounded(3)];
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    runBothWires(link, kEndpoints, trial);
  }
}

TEST(AsyncNetworkTimelines, TiesBreakInScheduleOrder) {
  // Fixed links whose timers land exactly on arrivals: a timeout equal to
  // the base (the ack beats the timer it ties with), a timeout twice the
  // base (the timer beats the ack), and auto timeouts of bases 1 and 4.
  AsyncLinkConfig link = losslessLink();
  link.dropProbability = 0.5;
  link.retransmitTimeout = 1.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) runBothWires(link, 4, seed);
  LinkLatencyOverride slow;
  slow.endpointA = 0;
  slow.endpointB = 1;
  slow.latency.base = 2.0;
  link.latencyOverrides.push_back(slow);
  link.retransmitTimeout = 2.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) runBothWires(link, 4, seed);
  link.latencyOverrides[0].latency.base = 4.0;
  link.retransmitTimeout = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) runBothWires(link, 4, seed);

  // Two packets on different timer chains that arrive at the same time:
  // attempt 3 on the Fixed base-49 link (a timer every 147) runs at 441,
  // attempt 4 on a heavy-tail base-10 link capped at 50 (a timer every
  // 110) runs at 440, and both arrive at 490.
  AsyncLinkConfig mixed;
  mixed.latency.model = LatencyModel::HeavyTail;
  mixed.latency.base = 10.0;
  mixed.latency.tailShape = 0.5;
  mixed.latency.tailCap = 5.0;
  mixed.dropProbability = 0.5;
  LinkLatencyOverride fixed;
  fixed.endpointA = 0;
  fixed.endpointB = 1;
  fixed.latency.base = 49.0;
  mixed.latencyOverrides.push_back(fixed);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    runBothWires(mixed, 3, seed, 400);
  }
}

TEST(AsyncNetworkTimelines, ManyAttemptsOutstandingOnOnePacket) {
  // hotspot_async's link with a heavier tail (Pareto shape 0.5, not 1.5)
  // and a timeout of one base: a slow packet is retransmitted every time
  // unit while the copies and acks of its earlier attempts are still on
  // the wire. Without duplicates each attempt has at most one of them in
  // flight, so more than 8 in flight is more than 8 attempts outstanding.
  AsyncLinkConfig link;
  link.latency.model = LatencyModel::HeavyTail;
  link.latency.base = 1.0;
  link.latency.tailShape = 0.5;
  link.latency.tailCap = 64.0;
  link.dropProbability = 0.05;
  link.retransmitTimeout = 1.0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    EXPECT_GT(runBothWires(link, 5, seed), 8) << "seed " << seed;
  }
}

// ---- AlphaSynchronizer as a Transport ----

AsyncConfig lossyConfig() {
  AsyncConfig net;
  net.seed = 3;
  net.link.latency.model = LatencyModel::Uniform;
  net.link.latency.spread = 2.0;
  net.link.dropProbability = 0.3;
  net.link.retransmitTimeout = 4.0;
  return net;
}

AlphaSynchronizer makeSync(std::vector<std::vector<std::int32_t>> adjacency,
                           const AsyncConfig& net) {
  const auto n = static_cast<std::int32_t>(adjacency.size());
  return AlphaSynchronizer(std::move(adjacency),
                           ShardPlacement::identity(n), net);
}

TEST(AlphaSynchronizer, DeliversToNeighborsNextRoundDespiteLoss) {
  AlphaSynchronizer net = makeSync({{1}, {0, 2}, {1}}, lossyConfig());
  net.broadcast({MessageKind::MisActive, 1, 42, 0.0});
  net.endRound();
  ASSERT_EQ(net.inbox(0).size(), 1u);
  ASSERT_EQ(net.inbox(2).size(), 1u);
  EXPECT_TRUE(net.inbox(1).empty());
  EXPECT_EQ(net.inbox(0)[0].instance, 42);
  EXPECT_EQ(net.stats().rounds, 1);
  EXPECT_EQ(net.stats().messages, 2);
  EXPECT_GT(net.stats().virtualTime, 0.0);
}

TEST(AlphaSynchronizer, InboxSortedCanonically) {
  AlphaSynchronizer net = makeSync({{2}, {2}, {0, 1}}, lossyConfig());
  net.broadcast({MessageKind::MisActive, 1, 9, 0.0});
  net.broadcast({MessageKind::MisActive, 0, 3, 0.0});
  net.endRound();
  const auto& inbox = net.inbox(2);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].instance, 3);
  EXPECT_EQ(inbox[1].instance, 9);
}

TEST(AlphaSynchronizer, InboxClearedEachRound) {
  AlphaSynchronizer net = makeSync({{1}, {0}}, lossyConfig());
  net.broadcast({MessageKind::MisActive, 0, 1, 0.0});
  net.endRound();
  EXPECT_EQ(net.inbox(1).size(), 1u);
  net.endRound();
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(AlphaSynchronizer, SilentRoundsAdvanceClockWithoutTraffic) {
  AlphaSynchronizer net = makeSync({{1}, {0}}, lossyConfig());
  const std::int64_t before = net.stats().transmissions;
  net.endSilentRounds(5);
  EXPECT_EQ(net.stats().rounds, 5);
  EXPECT_EQ(net.stats().busyRounds, 0);
  EXPECT_EQ(net.stats().transmissions, before);
  EXPECT_GT(net.stats().virtualTime, 0.0);
}

TEST(AlphaSynchronizer, VirtualTimeMonotone) {
  AlphaSynchronizer net = makeSync({{1}, {0}}, lossyConfig());
  double last = 0;
  for (int r = 0; r < 4; ++r) {
    net.broadcast({MessageKind::MisActive, 0, r, 0.0});
    net.endRound();
    EXPECT_GT(net.stats().virtualTime, last);
    last = net.stats().virtualTime;
  }
}

TEST(AlphaSynchronizer, ShardedLocalTrafficSkipsTheWire) {
  // Both demands on one processor: no physical links, no transmissions.
  AsyncConfig net = lossyConfig();
  AlphaSynchronizer sync({{1}, {0}},
                         ShardPlacement::build(ShardStrategy::RoundRobin,
                                               {{0}, {0}}, 1),
                         net);
  sync.broadcast({MessageKind::MisActive, 0, 5, 0.0});
  sync.endRound();
  ASSERT_EQ(sync.inbox(1).size(), 1u);
  EXPECT_EQ(sync.stats().transmissions, 0);
  EXPECT_EQ(sync.stats().messages, 1);
  EXPECT_GT(sync.stats().virtualTime, 0.0);
}

// ---- AlphaSynchronizer: sender declarations (lossless wire) ----

/// Six demands round-robin on three processors (demand d on d % 3):
/// every processor pair is a physical link, and demands 0 and 3 share
/// processor 0. No drops, so every packet is one transmission.
AlphaSynchronizer declarationSync() {
  const std::vector<std::vector<std::int32_t>> access(6, {0});
  return AlphaSynchronizer(
      {{1, 3}, {0, 2}, {1, 3}, {0, 2, 4}, {3, 5}, {4}},
      ShardPlacement::build(ShardStrategy::RoundRobin, access, 3),
      AsyncConfig{});
}

/// Distinct (sender's processor, remote neighbour's processor) pairs
/// over `senders` — the markers a round declaring them must send.
std::int64_t markerPairs(const AlphaSynchronizer& sync,
                         const std::vector<std::int32_t>& senders) {
  const auto& home = sync.placement().processorOfDemand;
  std::set<std::pair<std::int32_t, std::int32_t>> pairs;
  for (const std::int32_t d : senders) {
    for (const std::int32_t e : sync.neighbors(d)) {
      const std::int32_t p = home[static_cast<std::size_t>(d)];
      const std::int32_t q = home[static_cast<std::size_t>(e)];
      if (p != q) pairs.insert({p, q});
    }
  }
  return static_cast<std::int64_t>(pairs.size());
}

/// Ends one round and returns the markers it put on the wire.
std::int64_t markersOfRound(AlphaSynchronizer& sync) {
  const std::int64_t before = sync.stats().markerTransmissions;
  sync.endRound();
  return sync.stats().markerTransmissions - before;
}

TEST(AlphaSynchronizer, DeclaredRoundMarksOnlyFromSenderProcessors) {
  AlphaSynchronizer sync = declarationSync();
  const std::vector<std::vector<std::int32_t>> declarations = {
      {0}, {0, 3}, {3, 0, 3}, {1, 4}, {5}, {2, 5}, {}};
  const std::vector<std::int64_t> expected = {1, 2, 2, 2, 1, 2, 0};
  for (std::size_t k = 0; k < declarations.size(); ++k) {
    const auto& senders = declarations[k];
    sync.declareSenders(senders);
    if (!senders.empty()) {
      sync.broadcast({MessageKind::MisActive, senders.front(), 7, 0.0});
    }
    EXPECT_EQ(markerPairs(sync, senders), expected[k]) << "declaration " << k;
    EXPECT_EQ(markersOfRound(sync), expected[k]) << "declaration " << k;
    if (!senders.empty()) {
      EXPECT_FALSE(sync.inbox(sync.neighbors(senders.front())[0]).empty());
    }
  }
  // Payload is the rest of the wire traffic: one packet per remote
  // processor of each sender (0, 0, 3, 1, 5, 2).
  EXPECT_EQ(sync.stats().transmissions - sync.stats().markerTransmissions,
            1 + 1 + 2 + 2 + 1 + 2);
}

TEST(AlphaSynchronizer, UndeclaredRoundMarksEveryDirectedLink) {
  AlphaSynchronizer sync = declarationSync();
  EXPECT_EQ(markersOfRound(sync), 6);
  sync.declareSenders(std::vector<std::int32_t>{0, 1, 2, 3, 4, 5});
  EXPECT_EQ(markersOfRound(sync), 6);
  sync.broadcast({MessageKind::MisActive, 4, 1, 0.0});
  EXPECT_EQ(markersOfRound(sync), 6);
}

TEST(AlphaSynchronizer, BroadcastFromUndeclaredDemandThrows) {
  AlphaSynchronizer sync = declarationSync();
  sync.declareSenders(std::vector<std::int32_t>{0, 2});
  sync.broadcast({MessageKind::MisActive, 2, 1, 0.0});
  EXPECT_THROW(sync.broadcast({MessageKind::MisActive, 1, 2, 0.0}),
               CheckError);
  EXPECT_THROW(sync.broadcast({MessageKind::MisActive, 3, 3, 0.0}),
               CheckError);
}

TEST(AlphaSynchronizer, DeclarationCoversOneRoundOnly) {
  AlphaSynchronizer sync = declarationSync();
  sync.declareSenders(std::vector<std::int32_t>{0});
  EXPECT_EQ(markersOfRound(sync), 1);
  // The next round is undeclared again: anyone may send, every link
  // carries a marker.
  sync.broadcast({MessageKind::MisActive, 1, 1, 0.0});
  EXPECT_EQ(markersOfRound(sync), 6);
  // Silent rounds end a declaration too.
  sync.declareSenders(std::vector<std::int32_t>{5});
  sync.endSilentRounds(2);
  sync.broadcast({MessageKind::MisActive, 1, 2, 0.0});
  EXPECT_EQ(markersOfRound(sync), 6);
}

}  // namespace
}  // namespace treesched
