// Unit tests of the net/ building blocks: latency models, the lossy
// event-driven AsyncNetwork, and the alpha-synchronizer's Transport
// behaviour (mirroring the SimNetwork tests in dist_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
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

// Packets delivered to `endpoint` since the last drain, in arrival order:
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
