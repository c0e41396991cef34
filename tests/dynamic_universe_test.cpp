// Acceptance gate of the dynamic universe (core/dynamic_universe.hpp):
// the incrementally-maintained universe + layering must equal the
// from-scratch build restricted to the live demand set — bit-identical
// records, paths, groups, critical edges and per-edge instance lists
// (from which conflicts are derived) — on every scenario preset, after
// every epoch of its churn trace. Schedules driven through the dynamic
// path must be bit-identical at {1, 8} threads over {sync, sharded}
// wires. Edge cases ride along: a single-demand network, the first
// arrival into an empty universe, re-arrival after full
// garbage-collection rebuilding bit-identical state, and group-numbering
// stability across GC (pool constants never shift as demands come and
// go).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "gen/scenario.hpp"
#include "net/live_transport.hpp"
#include "net/transport.hpp"
#include "online/churn_engine.hpp"

namespace treesched {
namespace {

// Small enough for the exhaustive per-epoch comparisons, large enough
// that every preset keeps multiple networks and conflict structure.
constexpr std::int32_t kPresetDemands = 48;

/// Poisson control trace for the presets that ship without one.
ChurnTrace traceFor(const ScenarioProblem& problem, std::uint64_t seed) {
  if (problem.hasChurn) return problem.trace;
  ArrivalConfig arrivals;
  arrivals.seed = seed ^ 0xd11aULL;
  arrivals.horizon = 48.0;
  arrivals.meanLifetime = 16.0;
  return generateChurnTrace(arrivals, problem.access);
}

DynamicUniverse dynamicUniverseOf(const ScenarioProblem& problem) {
  return problem.treePool != nullptr ? makeDynamicTreeUniverse(problem.treePool)
                                     : makeDynamicLineUniverse(problem.linePool);
}

/// The gate itself: the dynamic live view equals the from-scratch pool
/// universe + layering restricted to `live`. Pool constants (id space,
/// group count, Delta) must match unconditionally.
void expectLiveViewMatchesStatic(const DynamicUniverse& dynamic,
                                 const InstanceUniverse& pool,
                                 const Layering& layering,
                                 const std::vector<std::uint8_t>& live,
                                 const std::string& where) {
  ASSERT_EQ(dynamic.numInstances(), pool.numInstances()) << where;
  ASSERT_EQ(dynamic.numDemands(), pool.numDemands()) << where;
  ASSERT_EQ(dynamic.numGlobalEdges(), pool.numGlobalEdges()) << where;
  EXPECT_EQ(dynamic.numGroups(), layering.numGroups) << where;
  EXPECT_EQ(dynamic.maxCriticalSize(), layering.maxCriticalSize) << where;

  std::vector<std::uint8_t> liveInstance(
      static_cast<std::size_t>(pool.numInstances()), 0);
  std::int32_t liveDemands = 0;
  std::int32_t liveInstances = 0;
  for (DemandId d = 0; d < pool.numDemands(); ++d) {
    const bool isLive = live[static_cast<std::size_t>(d)] != 0;
    ASSERT_EQ(dynamic.isLive(d), isLive) << where << " demand " << d;
    const auto expected = pool.instancesOfDemand(d);
    const auto got = dynamic.instancesOfDemand(d);
    if (!isLive) {
      EXPECT_TRUE(got.empty()) << where << " demand " << d;
      continue;
    }
    ++liveDemands;
    ASSERT_EQ(got.size(), expected.size()) << where << " demand " << d;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()))
        << where << " demand " << d;
    for (const InstanceId i : expected) {
      liveInstance[static_cast<std::size_t>(i)] = 1;
      ++liveInstances;
      const InstanceRecord& a = dynamic.instance(i);
      const InstanceRecord& b = pool.instance(i);
      ASSERT_EQ(a.id, b.id) << where;
      EXPECT_EQ(a.demand, b.demand) << where;
      EXPECT_EQ(a.network, b.network) << where;
      EXPECT_EQ(a.u, b.u) << where;
      EXPECT_EQ(a.v, b.v) << where;
      EXPECT_EQ(a.profit, b.profit) << where;
      EXPECT_EQ(a.height, b.height) << where;
      const auto pathA = dynamic.path(i);
      const auto pathB = pool.path(i);
      ASSERT_EQ(pathA.size(), pathB.size()) << where << " instance " << i;
      EXPECT_TRUE(std::equal(pathA.begin(), pathA.end(), pathB.begin()))
          << where << " instance " << i;
      EXPECT_EQ(dynamic.groupOf(i),
                layering.group[static_cast<std::size_t>(i)])
          << where << " instance " << i;
      const auto critA = dynamic.critical(i);
      const auto critB = layering.critical(i);
      ASSERT_EQ(critA.size(), critB.size()) << where << " instance " << i;
      EXPECT_TRUE(std::equal(critA.begin(), critA.end(), critB.begin()))
          << where << " instance " << i;
    }
  }
  EXPECT_EQ(dynamic.numLiveDemands(), liveDemands) << where;
  EXPECT_EQ(dynamic.numLiveInstances(), liveInstances) << where;

  // The per-edge lists: exactly the from-scratch lists intersected with
  // the live id set.
  std::vector<InstanceId> expected;
  for (GlobalEdgeId e = 0; e < pool.numGlobalEdges(); ++e) {
    expected.clear();
    for (const InstanceId j : pool.instancesOnEdge(e)) {
      if (liveInstance[static_cast<std::size_t>(j)] != 0) {
        expected.push_back(j);
      }
    }
    const auto got = dynamic.instancesOnEdge(e);
    ASSERT_EQ(got.size(), expected.size()) << where << " edge " << e;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()))
        << where << " edge " << e;
  }
}

TEST(DynamicUniverse, LiveViewMatchesFromScratchOnEveryPresetEveryEpoch) {
  for (const ScenarioPresetInfo& preset : scenarioPresets()) {
    SCOPED_TRACE(preset.name);
    const ScenarioProblem problem =
        buildScenarioProblem(preset.name, 7, kPresetDemands);
    const ChurnTrace trace = traceFor(problem, 7);
    DynamicUniverse dynamic = dynamicUniverseOf(problem);

    std::vector<std::uint8_t> live(
        static_cast<std::size_t>(problem.universe.numDemands()), 0);
    expectLiveViewMatchesStatic(dynamic, problem.universe, problem.layering,
                                live, "empty");

    std::int64_t arrivals = 0;
    std::int64_t retirements = 0;
    std::int32_t epoch = 0;
    for (const EpochBatch& batch : batchTrace(trace, problem.epochLength)) {
      for (const DemandId d : batch.departures) {
        live[static_cast<std::size_t>(d)] = 0;
        dynamic.retireDemand(d);
        ++retirements;
      }
      for (const DemandId d : batch.arrivals) {
        live[static_cast<std::size_t>(d)] = 1;
        dynamic.addDemand(d);
        ++arrivals;
      }
      expectLiveViewMatchesStatic(dynamic, problem.universe, problem.layering,
                                  live, "epoch " + std::to_string(epoch));
      ++epoch;
    }
    EXPECT_GT(arrivals, 0) << "non-vacuous trace";
    EXPECT_GT(retirements, 0) << "non-vacuous trace";
    EXPECT_EQ(dynamic.stats().arrivals, arrivals);
    EXPECT_EQ(dynamic.stats().gcDemands, retirements);
  }
}

// ---- Schedule bit-identity through the dynamic path --------------------

struct EpochFingerprint {
  std::vector<InstanceId> instances;
  double profit;
  double dualObjective;
  double lambdaMeasured;
  std::int64_t raises;
  std::int64_t rounds;
  std::int64_t messages;

  bool operator==(const EpochFingerprint&) const = default;
};

std::vector<EpochFingerprint> fingerprintOf(const ChurnRunResult& r) {
  std::vector<EpochFingerprint> prints;
  prints.reserve(r.epochs.size());
  for (const EpochOutcome& epoch : r.epochs) {
    prints.push_back({epoch.solution.instances, epoch.profit,
                      epoch.dualObjective, epoch.lambdaMeasured, epoch.raises,
                      epoch.rounds, epoch.messages});
  }
  return prints;
}

LiveTransportConfig shardedWire(std::uint64_t seed) {
  LiveTransportConfig transport;
  transport.kind = LiveTransportKind::Sharded;
  transport.async.seed = seed ^ 0x77aULL;
  transport.async.link.latency.model = LatencyModel::Uniform;
  transport.async.link.latency.base = 1.0;
  transport.async.link.latency.spread = 2.0;
  transport.async.link.dropProbability = 0.1;
  transport.async.link.retransmitTimeout = 8.0;
  transport.async.shardProcessors = 5;
  return transport;
}

ChurnEngineConfig engineConfig(double epochLength, std::int32_t threads,
                               const LiveTransportConfig& transport) {
  ChurnEngineConfig config;
  config.epochLength = epochLength;
  config.solver.seed = 77;
  config.solver.epsilon = 0.35;
  config.solver.misRoundBudget = 4;
  config.solver.stepsPerStage = 2;
  config.solver.threads = threads;
  config.transport = transport;
  return config;
}

TEST(DynamicUniverse, ChurnSchedulesBitIdenticalAcrossThreadsAndWires) {
  for (const ScenarioPresetInfo& preset : scenarioPresets()) {
    SCOPED_TRACE(preset.name);
    const ScenarioProblem problem =
        buildScenarioProblem(preset.name, 13, kPresetDemands);
    const ChurnTrace trace = traceFor(problem, 13);

    const LiveTransportConfig sync;
    const LiveTransportConfig sharded = shardedWire(13);
    DynamicUniverse referenceUniverse = dynamicUniverseOf(problem);
    const ChurnRunResult reference =
        runChurnOverTrace(referenceUniverse, trace,
                          engineConfig(problem.epochLength, 1, sync));
    ASSERT_FALSE(reference.epochs.empty());
    const std::vector<EpochFingerprint> before = fingerprintOf(reference);

    const struct {
      const char* label;
      std::int32_t threads;
      const LiveTransportConfig& transport;
    } runs[] = {{"sync-8", 8, sync},
                {"sharded-1", 1, sharded},
                {"sharded-8", 8, sharded}};
    for (const auto& r : runs) {
      DynamicUniverse universe = dynamicUniverseOf(problem);
      const ChurnRunResult run = runChurnOverTrace(
          universe, trace, engineConfig(problem.epochLength, r.threads,
                                        r.transport));
      EXPECT_EQ(fingerprintOf(run), before) << r.label;
    }
  }
}

// ---- Edge cases --------------------------------------------------------

TEST(DynamicUniverse, SingleDemandNetworkAddAndRetire) {
  TreeScenarioConfig cfg;
  cfg.seed = 5;
  cfg.numVertices = 12;
  cfg.numNetworks = 1;
  cfg.demands.numDemands = 1;
  cfg.demands.accessProbability = 1.0;
  const TreeProblem problem = makeTreeScenario(cfg);
  const PreparedRun prepared = prepareUnitTreeRun(problem);
  DynamicUniverse dynamic = makeDynamicTreeUniverse(problem);

  std::vector<std::uint8_t> live(1, 0);
  expectLiveViewMatchesStatic(dynamic, prepared.universe, prepared.layering,
                              live, "empty");
  dynamic.addDemand(0);
  live[0] = 1;
  expectLiveViewMatchesStatic(dynamic, prepared.universe, prepared.layering,
                              live, "live");
  EXPECT_GT(dynamic.numLiveInstances(), 0);
  dynamic.retireDemand(0);
  live[0] = 0;
  expectLiveViewMatchesStatic(dynamic, prepared.universe, prepared.layering,
                              live, "retired");
  EXPECT_EQ(dynamic.numLiveInstances(), 0);
}

TEST(DynamicUniverse, FirstArrivalIntoEmptyNetworkStandsAlone) {
  TreeScenarioConfig cfg;
  cfg.seed = 19;
  cfg.numVertices = 24;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = 10;
  cfg.demands.accessProbability = 0.7;
  const TreeProblem problem = makeTreeScenario(cfg);
  const PreparedRun prepared = prepareUnitTreeRun(problem);
  DynamicUniverse dynamic = makeDynamicTreeUniverse(problem);

  // The very first arrival lands in a fully empty universe: every
  // network is empty, so its instances may conflict only with their own
  // demand's siblings — exactly what the from-scratch intersection
  // predicts.
  std::vector<std::uint8_t> live(10, 0);
  dynamic.addDemand(3);
  live[3] = 1;
  expectLiveViewMatchesStatic(dynamic, prepared.universe, prepared.layering,
                              live, "first-arrival");
  for (const InstanceId i : dynamic.instancesOfDemand(3)) {
    const bool othersConflict = anyConflict(dynamic, i, [&](InstanceId j) {
      return dynamic.instance(j).demand != 3;
    });
    EXPECT_FALSE(othersConflict)
        << "an arrival into empty networks conflicts only with itself";
  }
}

TEST(DynamicUniverse, ReArrivalAfterFullGcRebuildsBitIdenticalState) {
  const ChurnTreeScenario scenario = makeHotspotTree50k(9, 40);
  const PreparedRun prepared = prepareUnitTreeRun(scenario.pool);
  DynamicUniverse dynamic = makeDynamicTreeUniverse(scenario.pool);
  const std::int32_t numDemands = dynamic.numDemands();

  std::vector<std::uint8_t> live(static_cast<std::size_t>(numDemands), 1);
  for (DemandId d = 0; d < numDemands; ++d) dynamic.addDemand(d);
  expectLiveViewMatchesStatic(dynamic, prepared.universe, prepared.layering,
                              live, "first-build");

  // Snapshot the live structures, then garbage-collect everything.
  std::vector<std::vector<InstanceId>> edgeSnapshot;
  std::vector<std::int32_t> groupSnapshot;
  for (GlobalEdgeId e = 0; e < dynamic.numGlobalEdges(); ++e) {
    const auto onEdge = dynamic.instancesOnEdge(e);
    edgeSnapshot.emplace_back(onEdge.begin(), onEdge.end());
  }
  for (InstanceId i = 0; i < dynamic.numInstances(); ++i) {
    groupSnapshot.push_back(dynamic.groupOf(i));
  }
  const std::int64_t firstBuildInstances = dynamic.numLiveInstances();
  for (DemandId d = 0; d < numDemands; ++d) dynamic.retireDemand(d);
  EXPECT_EQ(dynamic.numLiveDemands(), 0);
  EXPECT_EQ(dynamic.numLiveInstances(), 0);
  EXPECT_EQ(dynamic.stats().gcInstances, firstBuildInstances)
      << "full GC collects exactly what the build materialized";
  for (GlobalEdgeId e = 0; e < dynamic.numGlobalEdges(); ++e) {
    EXPECT_TRUE(dynamic.instancesOnEdge(e).empty()) << "edge " << e;
  }

  // Re-arrival (reverse order, so splice order differs from the first
  // build) must rebuild bit-identical state.
  for (DemandId d = numDemands - 1; d >= 0; --d) dynamic.addDemand(d);
  expectLiveViewMatchesStatic(dynamic, prepared.universe, prepared.layering,
                              live, "re-arrival");
  for (GlobalEdgeId e = 0; e < dynamic.numGlobalEdges(); ++e) {
    const auto onEdge = dynamic.instancesOnEdge(e);
    ASSERT_EQ(onEdge.size(), edgeSnapshot[static_cast<std::size_t>(e)].size())
        << "edge " << e;
    EXPECT_TRUE(std::equal(onEdge.begin(), onEdge.end(),
                           edgeSnapshot[static_cast<std::size_t>(e)].begin()))
        << "edge " << e;
  }
  for (InstanceId i = 0; i < dynamic.numInstances(); ++i) {
    EXPECT_EQ(dynamic.groupOf(i),
              groupSnapshot[static_cast<std::size_t>(i)])
        << "instance " << i;
  }
}

TEST(DynamicUniverse, GroupNumberingStableAcrossGc) {
  const ChurnLineScenario scenario = makeDiurnalMetroLine100k(21, 40);
  DynamicUniverse dynamic = makeDynamicLineUniverse(scenario.pool);
  const std::int32_t numDemands = dynamic.numDemands();
  for (DemandId d = 0; d < numDemands; ++d) dynamic.addDemand(d);

  const std::int32_t numGroups = dynamic.numGroups();
  const std::int32_t delta = dynamic.maxCriticalSize();
  std::vector<std::int32_t> groupSnapshot;
  for (InstanceId i = 0; i < dynamic.numInstances(); ++i) {
    groupSnapshot.push_back(dynamic.groupOf(i));
  }

  // Retire every other demand: survivors keep their group numbers and
  // the pool constants never move (the protocol's stage plan and every
  // hash-keyed decision depend on them).
  for (DemandId d = 0; d < numDemands; d += 2) dynamic.retireDemand(d);
  EXPECT_EQ(dynamic.numGroups(), numGroups);
  EXPECT_EQ(dynamic.maxCriticalSize(), delta);
  for (DemandId d = 1; d < numDemands; d += 2) {
    for (const InstanceId i : dynamic.instancesOfDemand(d)) {
      EXPECT_EQ(dynamic.groupOf(i),
                groupSnapshot[static_cast<std::size_t>(i)])
          << "surviving instance " << i << " renumbered";
    }
  }

  // Re-arrivals slot back into their original groups.
  for (DemandId d = 0; d < numDemands; d += 2) dynamic.addDemand(d);
  EXPECT_EQ(dynamic.numGroups(), numGroups);
  for (InstanceId i = 0; i < dynamic.numInstances(); ++i) {
    EXPECT_EQ(dynamic.groupOf(i),
              groupSnapshot[static_cast<std::size_t>(i)])
        << "instance " << i;
  }
}

}  // namespace
}  // namespace treesched
