// Acceptance gate of epoch-boundary hot-shard rebalancing: shard
// placement is wire accounting, never the schedule. Enabling
// PlaneTransport::rebalanceShards on the live-sharded wire must leave
// every epoch outcome bit-identical to the SimNetwork reference — same
// solution, profit, duals, lambda, raises, rounds and messages — at any
// thread count; only processor loads and physical transmissions move.
//
// The sweep drives 5 seeds x {tree, line} x {poisson, targeted_burst}
// traces through the churn engine and compares the synchronous reference
// against sync @8 threads and the rebalancing sharded wire @ {1, 8}
// threads. Non-vacuity is asserted: across the targeted-burst runs the
// rebalancer must actually migrate demands and reduce the per-processor
// load variance, and its migration schedule must be identical at 1 and
// 8 threads (the plan runs at the epoch boundary, outside the parallel
// sections).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gen/scenario.hpp"
#include "net/live_transport.hpp"
#include "net/transport.hpp"
#include "online/churn_engine.hpp"

namespace treesched {
namespace {

constexpr std::uint64_t kSeeds[] = {3, 14, 25, 36, 47};

// Small enough for the event-driven wire, large enough (12 networks)
// that the targeted burst piles a hot network onto one sticky anchor.
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

AsyncConfig shardedWire(std::uint64_t seed) {
  AsyncConfig net;
  net.seed = seed ^ 0x10a4ULL;
  net.link.latency.model = LatencyModel::Uniform;
  net.link.latency.base = 1.0;
  net.link.latency.spread = 2.0;
  net.link.dropProbability = 0.1;
  net.link.retransmitTimeout = 8.0;
  net.shardProcessors = 7;
  return net;
}

ChurnEngineConfig engineConfig(std::uint64_t seed, std::int32_t threads,
                               const LiveTransportConfig& transport,
                               bool rebalance) {
  ChurnEngineConfig config;
  config.epochLength = kEpochLength;
  config.solver.seed = seed * 31 + 5;
  config.solver.epsilon = 0.35;
  config.solver.misRoundBudget = 4;
  config.solver.stepsPerStage = 2;
  config.solver.threads = threads;
  config.solver.rebalance.enabled = rebalance;
  config.solver.rebalance.seed = seed ^ 0x5ebaULL;
  config.transport = transport;
  return config;
}

/// The schedule-relevant epoch fields (everything the equivalence chain
/// promises); load variance, migrations and engine claim tallies are
/// deliberately excluded — they are the accounting rebalancing exists
/// to move.
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
  EXPECT_EQ(reference.sla.meanLatencyEpochs, run.sla.meanLatencyEpochs)
      << label;
}

/// Accumulated over one test body to assert the gate is non-vacuous.
struct RebalanceActivity {
  std::int64_t demandsMigrated = 0;
  bool varianceReduced = false;
};

void verifyRebalancedRunsAgree(
    const std::function<DynamicUniverse()>& makeUniverse,
    const ChurnTrace& trace, std::uint64_t seed, RebalanceActivity& activity) {
  LiveTransportConfig sync;
  DynamicUniverse referenceUniverse = makeUniverse();
  const ChurnRunResult reference = runChurnOverTrace(
      referenceUniverse, trace, engineConfig(seed, 1, sync, false));
  ASSERT_FALSE(reference.epochs.empty());
  ASSERT_GT(reference.totalMessages, 0);

  DynamicUniverse syncThreadedUniverse = makeUniverse();
  const ChurnRunResult syncThreaded = runChurnOverTrace(
      syncThreadedUniverse, trace, engineConfig(seed, 8, sync, false));
  expectRunsIdentical(reference, syncThreaded, "sync-8-threads");
  // Rebalancing on a placement-free transport is a no-op by contract.
  EXPECT_EQ(syncThreaded.totalDemandsMigrated, 0);

  LiveTransportConfig sharded;
  sharded.kind = LiveTransportKind::Sharded;
  sharded.async = shardedWire(seed);
  DynamicUniverse serialUniverse = makeUniverse();
  const ChurnRunResult serial = runChurnOverTrace(
      serialUniverse, trace, engineConfig(seed, 1, sharded, true));
  expectRunsIdentical(reference, serial, "sharded-rebalance-1-thread");

  DynamicUniverse threadedUniverse = makeUniverse();
  const ChurnRunResult threaded = runChurnOverTrace(
      threadedUniverse, trace, engineConfig(seed, 8, sharded, true));
  expectRunsIdentical(reference, threaded, "sharded-rebalance-8-threads");

  // The rebalancer's migration schedule is planned at the epoch
  // boundary, outside the parallel sections: identical at any thread
  // count, epoch by epoch.
  ASSERT_EQ(serial.epochs.size(), threaded.epochs.size());
  for (std::size_t k = 0; k < serial.epochs.size(); ++k) {
    EXPECT_EQ(serial.epochs[k].demandsMigrated,
              threaded.epochs[k].demandsMigrated)
        << "epoch " << k;
    EXPECT_EQ(serial.epochs[k].loadVarianceBefore,
              threaded.epochs[k].loadVarianceBefore)
        << "epoch " << k;
    EXPECT_EQ(serial.epochs[k].loadVarianceAfter,
              threaded.epochs[k].loadVarianceAfter)
        << "epoch " << k;
  }

  activity.demandsMigrated += serial.totalDemandsMigrated;
  if (serial.peakVarianceBefore > 0 &&
      serial.peakVarianceAfter < serial.peakVarianceBefore) {
    activity.varianceReduced = true;
  }
}

class RebalanceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RebalanceSweep, TreeEpochsIdenticalUnderRebalancing) {
  const std::uint64_t seed = GetParam();
  const ChurnTreeScenario scenario = makeHotspotTree50k(seed, kPoolDemands);
  RebalanceActivity activity;
  for (const ArrivalModel model :
       {ArrivalModel::Poisson, ArrivalModel::TargetedBurst}) {
    SCOPED_TRACE(arrivalModelName(model));
    verifyRebalancedRunsAgree(
        [&scenario] { return makeDynamicTreeUniverse(scenario.pool); },
        generateChurnTrace(sweepArrivals(model, seed), scenario.pool.access),
        seed, activity);
  }
  // Non-vacuous: the targeted burst piles its hot networks onto sticky
  // anchors, so the rebalancer must actually move demands and flatten
  // the per-processor load somewhere in this sweep.
  EXPECT_GT(activity.demandsMigrated, 0);
  EXPECT_TRUE(activity.varianceReduced);
}

TEST_P(RebalanceSweep, LineEpochsIdenticalUnderRebalancing) {
  const std::uint64_t seed = GetParam();
  const ChurnLineScenario scenario =
      makeDiurnalMetroLine100k(seed, kPoolDemands);
  RebalanceActivity activity;
  for (const ArrivalModel model :
       {ArrivalModel::Poisson, ArrivalModel::TargetedBurst}) {
    SCOPED_TRACE(arrivalModelName(model));
    verifyRebalancedRunsAgree(
        [&scenario] { return makeDynamicLineUniverse(scenario.pool); },
        generateChurnTrace(sweepArrivals(model, seed), scenario.pool.access),
        seed, activity);
  }
  EXPECT_GT(activity.demandsMigrated, 0);
  EXPECT_TRUE(activity.varianceReduced);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebalanceSweep, ::testing::ValuesIn(kSeeds),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace treesched
