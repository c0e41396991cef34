// Acceptance gate of the mutable-topology transport refactor: the online
// incremental re-solver speaks only the PlaneTransport contract
// (net/plane_transport.hpp), so the SAME churn run must be bit-identical over
// the synchronous bus, the asynchronous lossy wire (AlphaSynchronizer on
// AsyncNetwork, any latency/drop config) and the live-sharded wire —
// extending the PR-2/PR-3 equivalence chain to churn workloads.
//
// The sweep drives 5 seeds x {tree, line} x {poisson, flash_crowd,
// targeted_burst} traces through the churn engine over all transports
// (lossy + heavy-tail wires, 1 and 8 threads) and requires every epoch
// outcome — solution, profit, duals, lambda, raises, rounds, messages,
// SLA — to equal the SimNetwork reference exactly; only the wire
// accounting (virtual time, transmissions, drops, processor load) may
// differ. Plus unit coverage of the live-topology edge cases, the
// live shard placement and the targeted-burst arrival process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "gen/scenario.hpp"
#include "net/live_transport.hpp"
#include "net/plane_transport.hpp"
#include "net/transport.hpp"
#include "online/churn_engine.hpp"
#include "util/check.hpp"

namespace treesched {
namespace {

constexpr std::uint64_t kSeeds[] = {3, 14, 25, 36, 47};

// Churn sweep scale: small enough that the event-driven wires stay fast,
// large enough (12 networks) that warm partial-region epochs occur.
constexpr std::int32_t kPoolDemands = 96;
constexpr double kHorizon = 64.0;
constexpr double kEpochLength = 8.0;

ArrivalConfig sweepArrivals(ArrivalModel model, std::uint64_t seed) {
  ArrivalConfig config;
  config.model = model;
  config.seed = seed ^ 0x7a11ULL;
  config.horizon = kHorizon;
  config.meanLifetime = 24.0;
  config.burstCenter = 0.3;
  config.burstWidth = 0.08;
  config.burstFraction = 0.5;
  config.targetNetworkCount = 3;
  config.targetFraction = 0.8;
  config.correlatedLifetime = 0.3;
  return config;
}

/// The lossy wire: uniform latency, 20% loss — retransmissions everywhere.
AsyncConfig lossyWire(std::uint64_t seed) {
  AsyncConfig net;
  net.seed = seed ^ 0x10a4ULL;
  net.link.latency.model = LatencyModel::Uniform;
  net.link.latency.base = 1.0;
  net.link.latency.spread = 2.0;
  net.link.dropProbability = 0.2;
  net.link.retransmitTimeout = 8.0;
  return net;
}

/// The heavy-tail wire: Pareto latencies + loss, auto-derived timeout.
AsyncConfig heavyTailWire(std::uint64_t seed) {
  AsyncConfig net;
  net.seed = seed ^ 0x43a7ULL;
  net.link.latency.model = LatencyModel::HeavyTail;
  net.link.latency.base = 1.0;
  net.link.latency.tailShape = 1.5;
  net.link.latency.tailCap = 32.0;
  net.link.dropProbability = 0.1;
  net.link.retransmitTimeout = 0.0;  // per-link round-trip bound
  return net;
}

ChurnEngineConfig engineConfig(std::uint64_t seed, std::int32_t threads,
                               const LiveTransportConfig& transport) {
  ChurnEngineConfig config;
  config.epochLength = kEpochLength;
  config.solver.seed = seed * 31 + 5;
  config.solver.epsilon = 0.35;
  config.solver.misRoundBudget = 4;
  config.solver.stepsPerStage = 2;
  config.solver.threads = threads;
  config.transport = transport;
  return config;
}

void expectRunsIdentical(const ChurnRunResult& reference,
                         const ChurnRunResult& run, const char* label) {
  ASSERT_EQ(reference.epochs.size(), run.epochs.size()) << label;
  for (std::size_t k = 0; k < reference.epochs.size(); ++k) {
    const EpochOutcome& a = reference.epochs[k];
    const EpochOutcome& b = run.epochs[k];
    ASSERT_EQ(a.solution.instances, b.solution.instances)
        << label << " epoch " << k;
    EXPECT_EQ(a.profit, b.profit) << label << " epoch " << k;
    EXPECT_EQ(a.dualObjective, b.dualObjective) << label << " epoch " << k;
    EXPECT_EQ(a.lambdaMeasured, b.lambdaMeasured) << label << " epoch " << k;
    EXPECT_EQ(a.raises, b.raises) << label << " epoch " << k;
    EXPECT_EQ(a.rounds, b.rounds) << label << " epoch " << k;
    EXPECT_EQ(a.messages, b.messages) << label << " epoch " << k;
    EXPECT_EQ(a.affectedDemands, b.affectedDemands) << label << " epoch " << k;
    EXPECT_EQ(a.fullResolve, b.fullResolve) << label << " epoch " << k;
    EXPECT_EQ(a.newlyAdmittedDemands, b.newlyAdmittedDemands)
        << label << " epoch " << k;
  }
  EXPECT_EQ(reference.finalSolution.instances, run.finalSolution.instances)
      << label;
  EXPECT_EQ(reference.finalProfit, run.finalProfit) << label;
  EXPECT_EQ(reference.meanResolveFraction, run.meanResolveFraction) << label;
  EXPECT_EQ(reference.sla.admittedDemands, run.sla.admittedDemands) << label;
  EXPECT_EQ(reference.sla.departedUnadmitted, run.sla.departedUnadmitted)
      << label;
  EXPECT_EQ(reference.sla.meanLatencyEpochs, run.sla.meanLatencyEpochs)
      << label;
  EXPECT_EQ(reference.sla.maxLatencyEpochs, run.sla.maxLatencyEpochs)
      << label;
}

/// The shared sweep: reference over the synchronous bus, then the async
/// lossy wire (1 thread), the heavy-tail wire (8 threads) and the
/// live-sharded lossy wire (8 threads) — all bit-identical. Each run
/// grows its own dynamic universe from scratch (`makeUniverse`), so the
/// comparison also covers the incremental build's determinism.
void verifyTransportsAgree(
    const std::function<DynamicUniverse()>& makeUniverse,
    const ChurnTrace& trace, std::uint64_t seed) {
  LiveTransportConfig sync;
  DynamicUniverse syncUniverse = makeUniverse();
  const ChurnRunResult reference =
      runChurnOverTrace(syncUniverse, trace, engineConfig(seed, 1, sync));
  ASSERT_FALSE(reference.epochs.empty());
  EXPECT_EQ(reference.network.transmissions, 0);
  ASSERT_GT(reference.totalMessages, 0);

  LiveTransportConfig lossy;
  lossy.kind = LiveTransportKind::Async;
  lossy.async = lossyWire(seed);
  DynamicUniverse lossyUniverse = makeUniverse();
  const ChurnRunResult overLossy =
      runChurnOverTrace(lossyUniverse, trace, engineConfig(seed, 1, lossy));
  expectRunsIdentical(reference, overLossy, "async-lossy");
  EXPECT_GT(overLossy.network.transmissions, 0);
  EXPECT_GT(overLossy.network.drops, 0);
  EXPECT_GT(overLossy.network.virtualTime, 0.0);

  LiveTransportConfig heavy;
  heavy.kind = LiveTransportKind::Async;
  heavy.async = heavyTailWire(seed);
  DynamicUniverse heavyUniverse = makeUniverse();
  const ChurnRunResult overHeavy =
      runChurnOverTrace(heavyUniverse, trace, engineConfig(seed, 8, heavy));
  expectRunsIdentical(reference, overHeavy, "async-heavy-tail");
  EXPECT_GT(overHeavy.network.transmissions, 0);

  LiveTransportConfig sharded;
  sharded.kind = LiveTransportKind::Sharded;
  sharded.async = lossyWire(seed ^ 0x5a5aULL);
  sharded.async.shardProcessors = 7;
  DynamicUniverse shardedUniverse = makeUniverse();
  const ChurnRunResult overSharded = runChurnOverTrace(
      shardedUniverse, trace, engineConfig(seed, 8, sharded));
  expectRunsIdentical(reference, overSharded, "sharded");
  // Demand-level delivery is transport-invariant; only the wire moves.
  EXPECT_EQ(overSharded.network.messages, reference.network.messages);
  EXPECT_GT(overSharded.network.transmissions, 0);
  // Locality placement keeps intra-shard chatter off the wire: fewer
  // payload transmissions than the one-processor-per-demand wire needs
  // (both wires retransmit, so compare totals minus control via the
  // conservative payload proxy: sharded sends once per remote shard).
  EXPECT_LT(overSharded.network.transmissions,
            overLossy.network.transmissions);
}

class OnlineTransportSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineTransportSweep, TreeEpochsIdenticalAcrossTransports) {
  const std::uint64_t seed = GetParam();
  const ChurnTreeScenario scenario = makeHotspotTree50k(seed, kPoolDemands);
  for (const ArrivalModel model :
       {ArrivalModel::Poisson, ArrivalModel::FlashCrowd,
        ArrivalModel::TargetedBurst}) {
    SCOPED_TRACE(arrivalModelName(model));
    verifyTransportsAgree(
        [&scenario] { return makeDynamicTreeUniverse(scenario.pool); },
        generateChurnTrace(sweepArrivals(model, seed), scenario.pool.access),
        seed);
  }
}

TEST_P(OnlineTransportSweep, LineEpochsIdenticalAcrossTransports) {
  const std::uint64_t seed = GetParam();
  const ChurnLineScenario scenario =
      makeDiurnalMetroLine100k(seed, kPoolDemands);
  for (const ArrivalModel model :
       {ArrivalModel::Poisson, ArrivalModel::FlashCrowd,
        ArrivalModel::TargetedBurst}) {
    SCOPED_TRACE(arrivalModelName(model));
    verifyTransportsAgree(
        [&scenario] { return makeDynamicLineUniverse(scenario.pool); },
        generateChurnTrace(sweepArrivals(model, seed), scenario.pool.access),
        seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineTransportSweep,
                         ::testing::ValuesIn(kSeeds),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

// ---- Live-topology edge cases (every mutable transport) ----

std::vector<std::vector<std::int32_t>> edgeCaseAccess() {
  // Demands 0-1 share network 0, demands 2-3 share network 1, demand 4
  // accesses nothing (always isolated).
  return {{0}, {0}, {1}, {1}, {}};
}

void exerciseTopologyEdgeCases(Transport& transport, const char* label) {
  PlaneTransport& topo = requirePlaneTransport(transport);
  ASSERT_EQ(topo.numProcessors(), 5) << label;

  // Disconnect of a never-connected demand: a no-op, not an error.
  topo.disconnectDemand(3);
  topo.validateTopology();
  for (std::int32_t d = 0; d < topo.numProcessors(); ++d) {
    EXPECT_TRUE(topo.neighbors(d).empty()) << label;
  }

  // Connect both pairs; the current-adjacency query sees every edge from
  // both sides.
  topo.connectDemand(0, std::vector<std::int32_t>{1});
  topo.validateTopology();
  topo.connectDemand(2, std::vector<std::int32_t>{3});
  topo.validateTopology();
  ASSERT_EQ(topo.neighbors(1).size(), 1u) << label;
  EXPECT_EQ(topo.neighbors(1)[0], 0) << label;
  ASSERT_EQ(topo.neighbors(3).size(), 1u) << label;
  EXPECT_EQ(topo.neighbors(3)[0], 2) << label;

  // Malformed connects are rejected without touching the live graph.
  EXPECT_THROW(topo.connectDemand(0, std::vector<std::int32_t>{2}),
               CheckError)
      << label;  // already connected
  EXPECT_THROW(topo.connectDemand(4, std::vector<std::int32_t>{3, 2}),
               CheckError)
      << label;  // unsorted
  EXPECT_THROW(topo.connectDemand(4, std::vector<std::int32_t>{4}),
               CheckError)
      << label;  // self loop
  topo.validateTopology();

  // Departure then re-arrival with a different neighbour set.
  topo.disconnectDemand(0);
  topo.validateTopology();
  EXPECT_TRUE(topo.neighbors(0).empty()) << label;
  EXPECT_TRUE(topo.neighbors(1).empty()) << label;
  topo.connectDemand(1, std::vector<std::int32_t>{0});
  topo.validateTopology();
  ASSERT_EQ(topo.neighbors(0).size(), 1u) << label;
  EXPECT_EQ(topo.neighbors(0)[0], 1) << label;

  // A second disconnect of an already-departed demand stays a no-op.
  topo.disconnectDemand(0);
  topo.disconnectDemand(0);
  topo.validateTopology();

  // The mutated graph still carries traffic.
  transport.broadcast({MessageKind::MisActive, 2, 7, 0.5});
  transport.endRound();
  ASSERT_EQ(transport.inbox(3).size(), 1u) << label;
  EXPECT_EQ(transport.inbox(3)[0].instance, 7) << label;
  transport.endSilentRounds(1);
}

TEST(MutableTopologyEdgeCases, AllLiveTransports) {
  for (const LiveTransportKind kind :
       {LiveTransportKind::SyncBus, LiveTransportKind::Async,
        LiveTransportKind::Sharded}) {
    LiveTransportConfig config;
    config.kind = kind;
    config.async = lossyWire(99);
    // Sharded: 4 processors over at most 4 placed demands — at least one
    // shard hosts nothing while the mutations run.
    config.async.shardProcessors = 4;
    const auto transport = makeLiveTransport(5, edgeCaseAccess(), config);
    exerciseTopologyEdgeCases(*transport, liveTransportKindName(kind));
  }
}

TEST(MutableTopologyEdgeCases,
     RejectedConnectLeavesGraphAndPlacementUnchanged) {
  for (const LiveTransportKind kind :
       {LiveTransportKind::SyncBus, LiveTransportKind::Async,
        LiveTransportKind::Sharded}) {
    SCOPED_TRACE(liveTransportKindName(kind));
    LiveTransportConfig config;
    config.kind = kind;
    config.async = lossyWire(99);
    config.async.shardProcessors = 4;
    const auto transport = makeLiveTransport(5, edgeCaseAccess(), config);
    PlaneTransport& topo = requirePlaneTransport(*transport);
    const auto* synchronizer =
        dynamic_cast<const AlphaSynchronizer*>(transport.get());
    topo.connectDemand(0, std::vector<std::int32_t>{1});

    // Every neighbour list, plus the demand -> processor map on the wires
    // (demands 2, 3 and 4 are still unplaced on the sharded one).
    const auto snapshot = [&] {
      std::vector<std::vector<std::int32_t>> state;
      for (std::int32_t d = 0; d < topo.numProcessors(); ++d) {
        const auto row = topo.neighbors(d);
        state.emplace_back(row.begin(), row.end());
      }
      if (synchronizer != nullptr) {
        state.push_back(synchronizer->placement().processorOfDemand);
      }
      return state;
    };
    const auto before = snapshot();

    EXPECT_THROW(topo.connectDemand(4, std::vector<std::int32_t>{3, 2}),
                 CheckError);  // unsorted
    EXPECT_THROW(topo.connectDemand(3, std::vector<std::int32_t>{2, 9}),
                 CheckError);  // out of range
    EXPECT_THROW(topo.connectDemand(3, std::vector<std::int32_t>{2, 3}),
                 CheckError);  // self loop
    EXPECT_THROW(topo.connectDemand(1, std::vector<std::int32_t>{2, 3}),
                 CheckError);  // target already connected
    EXPECT_EQ(snapshot(), before);
    topo.validateTopology();
  }
}

TEST(MutableTopologyEdgeCases, ShardedMutationOnZeroDemandShards) {
  // All demands share one home network, so the live locality placement
  // anchors every arrival to ONE processor: the other three shards stay
  // empty through every mutation.
  const std::vector<std::vector<std::int32_t>> access = {
      {0}, {0}, {0}, {0}};
  LiveTransportConfig config;
  config.kind = LiveTransportKind::Sharded;
  config.async = lossyWire(7);
  config.async.shardProcessors = 4;
  const auto transport = makeLiveTransport(4, access, config);
  auto* synchronizer = dynamic_cast<AlphaSynchronizer*>(transport.get());
  ASSERT_NE(synchronizer, nullptr);
  PlaneTransport& topo = requirePlaneTransport(*transport);

  topo.connectDemand(0, std::vector<std::int32_t>{});
  topo.connectDemand(1, std::vector<std::int32_t>{0});
  topo.connectDemand(2, std::vector<std::int32_t>{0, 1});
  topo.validateTopology();
  const ShardPlacement& placement = synchronizer->placement();
  const std::int32_t home = placement.processorOfDemand[0];
  EXPECT_EQ(placement.processorOfDemand[1], home);
  EXPECT_EQ(placement.processorOfDemand[2], home);
  EXPECT_EQ(placement.liveDemandCount(home), 3);
  std::int32_t emptyShards = 0;
  for (std::int32_t p = 0; p < placement.numProcessors; ++p) {
    if (placement.liveDemandCount(p) == 0) ++emptyShards;
  }
  EXPECT_EQ(emptyShards, 3);

  // Everything on one shard: rounds run without touching the wire.
  transport->broadcast({MessageKind::MisActive, 2, 1, 0.25});
  transport->endRound();
  EXPECT_EQ(transport->inbox(0).size(), 1u);
  EXPECT_EQ(transport->inbox(1).size(), 1u);
  EXPECT_EQ(transport->stats().transmissions, 0);

  // Departures tombstone; the last departure releases the anchor, so a
  // re-arrival may be placed afresh — still a valid topology.
  topo.disconnectDemand(2);
  topo.disconnectDemand(1);
  topo.disconnectDemand(0);
  topo.validateTopology();
  EXPECT_EQ(placement.liveDemandCount(home), 0);
  topo.connectDemand(3, std::vector<std::int32_t>{});
  topo.validateTopology();
  EXPECT_TRUE(placement.isPlaced(3));
}

// ---- requirePlaneTransport on an immutable transport ----

class FixedTopologyTransport : public Transport {
 public:
  std::int32_t numProcessors() const override { return 1; }
  std::span<const std::int32_t> neighbors(std::int32_t) const override {
    return {};
  }
  void broadcast(const Message&) override {}
  void endRound() override {}
  void endSilentRounds(std::int64_t) override {}
  std::span<const Message> inbox(std::int32_t) const override { return {}; }
  const NetworkStats& stats() const override { return stats_; }

 private:
  NetworkStats stats_;
};

TEST(MutableTopologyEdgeCases, ImmutableTransportIsRejected) {
  FixedTopologyTransport fixed;
  EXPECT_THROW(requirePlaneTransport(fixed), CheckError);
  // The online solver funnels its transport through the same check.
  const ChurnTreeScenario scenario = makeHotspotTree50k(3, 1);
  DynamicUniverse universe = makeDynamicTreeUniverse(scenario.pool);
  EXPECT_THROW(IncrementalSolver(universe, OnlineSolverConfig{}, fixed),
               CheckError);
}

// ---- Live shard placement ----

TEST(LiveShardPlacement, LocalityAnchorsTombstonesAndCompaction) {
  // Home networks: demands 0-2 -> net 0, 3-4 -> net 1, 5 -> net 2.
  const std::vector<std::vector<std::int32_t>> access = {
      {0}, {0, 1}, {0}, {1}, {1, 2}, {2}};
  ShardPlacement placement = ShardPlacement::livePool(access, 3);
  EXPECT_TRUE(placement.live);
  EXPECT_EQ(placement.numProcessors, 3);
  for (DemandId d = 0; d < 6; ++d) {
    EXPECT_FALSE(placement.isPlaced(d));
  }

  // Arrivals of one home network share its anchor processor.
  const std::int32_t p0 = placement.placeDemand(0);
  EXPECT_EQ(placement.placeDemand(1), p0);
  EXPECT_EQ(placement.placeDemand(2), p0);
  // A new network anchors to the least-loaded processor.
  const std::int32_t p1 = placement.placeDemand(3);
  EXPECT_NE(p1, p0);
  EXPECT_EQ(placement.placeDemand(4), p1);
  const std::int32_t p2 = placement.placeDemand(5);
  EXPECT_NE(p2, p0);
  EXPECT_NE(p2, p1);
  EXPECT_EQ(placement.liveDemandCount(p0), 3);

  // Departures tombstone in place; once tombstones outnumber the live
  // entries the hosted list compacts.
  placement.removeDemand(0);
  EXPECT_EQ(placement.tombstoneCount(p0), 1);
  EXPECT_EQ(placement.liveDemandCount(p0), 2);
  placement.removeDemand(1);
  EXPECT_EQ(placement.tombstoneCount(p0), 0);  // 2 tombstones > 1 live
  EXPECT_GE(placement.compactions, 1);
  EXPECT_EQ(placement.demandsOfProcessor[static_cast<std::size_t>(p0)],
            (std::vector<DemandId>{2}));

  // The anchor survives while any demand of the network is live, and is
  // released by the last departure: a re-arrival re-anchors afresh to
  // the then-least-loaded processor.
  placement.removeDemand(2);
  EXPECT_EQ(placement.liveDemandCount(p0), 0);
  const std::int32_t again = placement.placeDemand(0);
  EXPECT_EQ(again, p0);  // p0 is now the least-loaded processor
  EXPECT_EQ(placement.placeDemand(2), p0);

  // Double-place and double-remove are rejected.
  EXPECT_THROW(placement.placeDemand(0), CheckError);
  placement.removeDemand(0);
  EXPECT_THROW(placement.removeDemand(0), CheckError);
}

// ---- Targeted-burst arrival process ----

TEST(TargetedBurstArrivals, ConcentratesChurnOnTargetNetworks) {
  const ChurnTreeScenario scenario = makeHotspotTree50k(21, 240);
  const std::vector<std::int32_t> targets =
      targetedNetworks(scenario.arrivals, scenario.pool.access);
  ASSERT_EQ(static_cast<std::int32_t>(targets.size()),
            scenario.arrivals.targetNetworkCount);

  const ChurnTrace trace =
      generateChurnTrace(scenario.arrivals, scenario.pool.access);
  // Deterministic replay.
  const ChurnTrace replay =
      generateChurnTrace(scenario.arrivals, scenario.pool.access);
  ASSERT_EQ(trace.events.size(), replay.events.size());
  for (std::size_t e = 0; e < trace.events.size(); ++e) {
    EXPECT_EQ(trace.events[e].time, replay.events[e].time);
    EXPECT_EQ(trace.events[e].demand, replay.events[e].demand);
  }

  const auto homeOf = [&scenario](DemandId d) {
    return homeNetworkOf(scenario.pool.access[static_cast<std::size_t>(d)]);
  };
  const auto isTarget = [&targets](std::int32_t net) {
    return net >= 0 &&
           std::binary_search(targets.begin(), targets.end(), net);
  };

  // Targeted demands pile into the arrival burst window...
  const double begin = scenario.arrivals.horizon *
                       (scenario.arrivals.burstCenter -
                        0.5 * scenario.arrivals.burstWidth);
  const double end = scenario.arrivals.horizon *
                     (scenario.arrivals.burstCenter +
                      0.5 * scenario.arrivals.burstWidth);
  std::int32_t targetedDemands = 0;
  std::int32_t targetedInBurst = 0;
  std::vector<std::uint8_t> arrivedInBurst(240, 0);
  std::vector<double> memberDepartures;
  for (const ChurnEvent& event : trace.events) {
    if (!isTarget(homeOf(event.demand))) continue;
    if (event.arrival) {
      ++targetedDemands;
      if (event.time >= begin && event.time <= end) {
        ++targetedInBurst;
        arrivedInBurst[static_cast<std::size_t>(event.demand)] = 1;
      }
    } else if (arrivedInBurst[static_cast<std::size_t>(event.demand)] != 0) {
      memberDepartures.push_back(event.time);
    }
  }
  ASSERT_GT(targetedDemands, 10);
  EXPECT_GT(targetedInBurst * 2, targetedDemands)
      << "targetFraction 0.85 of targeted demands must hit the burst";

  // ...and the burst members' correlated departures land in one narrow
  // window: one shared lifetime draw, jittered only ±10% per demand, on
  // top of arrivals confined to the burst window.
  ASSERT_GT(static_cast<std::int32_t>(memberDepartures.size()), 5);
  const auto [minDep, maxDep] = std::minmax_element(
      memberDepartures.begin(), memberDepartures.end());
  EXPECT_LT(*maxDep - *minDep, 0.25 * scenario.arrivals.horizon)
      << "mass departure spread stays a small fraction of the horizon";

  // The plain overload cannot target (no access lists).
  EXPECT_THROW(generateChurnTrace(scenario.arrivals, 240), CheckError);
  // Non-targeted models produce identical traces through both overloads.
  ArrivalConfig poisson = scenario.arrivals;
  poisson.model = ArrivalModel::Poisson;
  const ChurnTrace plain = generateChurnTrace(poisson, 240);
  const ChurnTrace viaAccess =
      generateChurnTrace(poisson, scenario.pool.access);
  ASSERT_EQ(plain.events.size(), viaAccess.events.size());
  for (std::size_t e = 0; e < plain.events.size(); ++e) {
    EXPECT_EQ(plain.events[e].time, viaAccess.events[e].time);
    EXPECT_EQ(plain.events[e].demand, viaAccess.events[e].demand);
    EXPECT_EQ(plain.events[e].arrival, viaAccess.events[e].arrival);
  }
}

}  // namespace
}  // namespace treesched
