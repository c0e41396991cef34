// The protocol observer must see exactly the events the run reports.
#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "core/universe.hpp"
#include "dist/protocol.hpp"
#include "gen/scenario.hpp"
#include "obs/metrics.hpp"

namespace treesched {
namespace {

class CountingObserver : public ProtocolObserver {
 public:
  void onEpochBegin(std::int32_t epoch, std::int32_t groupMembers) override {
    EXPECT_EQ(epoch, static_cast<std::int32_t>(epochMembers.size()))
        << "epochs begin in order, each exactly once";
    EXPECT_GE(groupMembers, 0);
    epochMembers.push_back(groupMembers);
  }
  void onStageBegin(std::int32_t epoch, std::int32_t stage,
                    double target) override {
    ++stageBegins;
    EXPECT_EQ(epoch, static_cast<std::int32_t>(epochMembers.size()) - 1)
        << "stages belong to the epoch that just began";
    EXPECT_GE(stage, 1);
    EXPECT_GT(target, 0);
  }
  void onStepStart(std::int32_t epoch, std::int32_t stage, std::int32_t step,
                   std::int32_t participants) override {
    ++steps;
    lastEpoch = epoch;
    lastStage = stage;
    lastStep = step;
    EXPECT_GT(participants, 0) << "silent steps must not be observed";
  }
  void onMisComplete(std::int64_t tuple, std::int32_t lubyRounds,
                     std::int32_t misSize) override {
    ++misCompletions;
    totalMisSize += misSize;
    EXPECT_GE(lubyRounds, 0);
    EXPECT_GE(tuple, 0);
  }
  void onEvent(const LedgerEvent& event) override {
    switch (event.kind) {
      case LedgerEventKind::DualRaise:
        raises.push_back(event.instance);
        EXPECT_GT(event.alphaIncrement, 0)
            << "unit-rule alpha increments are positive";
        break;
      case LedgerEventKind::Admitted:
        accepts.push_back(event.instance);
        break;
      case LedgerEventKind::Rejected:
        rejects.push_back(event.instance);
        ++rejectsByReason[static_cast<std::size_t>(event.reason)];
        break;
      case LedgerEventKind::Crash:
        crashes.emplace_back(event.demand, event.tuple);
        break;
      default:
        break;
    }
  }
  void onPhase1Complete(std::int64_t activeSteps,
                        std::int64_t raiseCount) override {
    ++phase1Completions;
    phase1Steps = activeSteps;
    phase1Raises = raiseCount;
  }
  void onPhase2Complete(std::int64_t acceptCount,
                        std::int64_t rejectCount) override {
    ++phase2Completions;
    phase2Accepts = acceptCount;
    phase2Rejects = rejectCount;
  }

  std::int64_t steps = 0;
  std::int64_t misCompletions = 0;
  std::int64_t totalMisSize = 0;
  std::int32_t lastEpoch = -1;
  std::int32_t lastStage = -1;
  std::int32_t lastStep = -1;
  std::int64_t stageBegins = 0;
  std::vector<std::int32_t> epochMembers;
  std::int32_t phase1Completions = 0;
  std::int64_t phase1Steps = -1;
  std::int64_t phase1Raises = -1;
  std::int32_t phase2Completions = 0;
  std::int64_t phase2Accepts = -1;
  std::int64_t phase2Rejects = -1;
  std::vector<InstanceId> raises;
  std::vector<InstanceId> accepts;
  std::vector<InstanceId> rejects;
  std::array<std::int64_t, 3> rejectsByReason = {0, 0, 0};
  std::vector<std::pair<DemandId, std::int64_t>> crashes;
};

TEST(Observer, EventCountsMatchResult) {
  TreeScenarioConfig cfg;
  cfg.seed = 61;
  cfg.numVertices = 24;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 20;
  cfg.demands.accessProbability = 0.8;
  const TreeProblem problem = makeTreeScenario(cfg);

  CountingObserver observer;
  DistributedOptions opt;
  opt.observer = &observer;
  const DistributedResult result = runDistributedUnitTree(problem, opt);

  EXPECT_EQ(observer.steps, result.activeSteps);
  EXPECT_EQ(observer.misCompletions, result.activeSteps);
  EXPECT_EQ(static_cast<std::int64_t>(observer.raises.size()), result.raises);
  EXPECT_EQ(observer.totalMisSize, result.raises);
  // Every accept is in the final solution and vice versa.
  std::vector<InstanceId> accepted = observer.accepts;
  std::sort(accepted.begin(), accepted.end());
  EXPECT_EQ(accepted, result.solution.instances);

  // Boundary events: one onEpochBegin per scheduled epoch (with every
  // stage attributed to it), and the phase-complete summaries repeat the
  // run-level counters.
  EXPECT_GT(observer.epochMembers.size(), 0u);
  EXPECT_GT(observer.stageBegins, 0);
  EXPECT_EQ(observer.phase1Completions, 1);
  EXPECT_EQ(observer.phase1Steps, result.activeSteps);
  EXPECT_EQ(observer.phase1Raises, result.raises);
  EXPECT_EQ(observer.phase2Completions, 1);
  EXPECT_EQ(observer.phase2Accepts,
            static_cast<std::int64_t>(observer.accepts.size()));
  EXPECT_EQ(observer.phase2Rejects,
            static_cast<std::int64_t>(observer.rejects.size()));
  // Every raise is popped exactly once in phase 2.
  EXPECT_EQ(observer.phase2Accepts + observer.phase2Rejects, result.raises);
  EXPECT_TRUE(observer.crashes.empty()) << "no faults were injected";
}

TEST(Observer, CrashEventsFireOncePerProcessor) {
  TreeScenarioConfig cfg;
  cfg.seed = 64;
  cfg.numVertices = 24;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 20;
  cfg.demands.accessProbability = 0.8;
  const TreeProblem problem = makeTreeScenario(cfg);

  CountingObserver observer;
  DistributedOptions opt;
  opt.observer = &observer;
  opt.crashProcessors = {0, 5, 9};
  opt.crashAtTuple = 3;
  const DistributedResult result = runDistributedUnitTree(problem, opt);

  ASSERT_EQ(observer.crashes.size(), 3u);
  for (std::size_t i = 0; i < observer.crashes.size(); ++i) {
    EXPECT_EQ(observer.crashes[i].first, opt.crashProcessors[i])
        << "crash events fire per processor, ascending";
    EXPECT_GE(observer.crashes[i].second, opt.crashAtTuple);
  }
  // Rejects include the crashed owners' surviving raises; the ledger
  // still balances.
  EXPECT_EQ(observer.phase2Accepts + observer.phase2Rejects, result.raises);
}

TEST(Observer, Phase2OnlyCrashReportsScheduleEnd) {
  TreeScenarioConfig cfg;
  cfg.seed = 65;
  cfg.numVertices = 16;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 14;
  cfg.demands.accessProbability = 0.8;
  const TreeProblem problem = makeTreeScenario(cfg);

  CountingObserver observer;
  DistributedOptions opt;
  opt.observer = &observer;
  opt.crashProcessors = {1, 3};
  opt.crashAtTuple = 1'000'000'000;  // past phase 1: crash at phase-2 start
  runDistributedUnitTree(problem, opt);

  ASSERT_EQ(observer.crashes.size(), 2u);
  EXPECT_EQ(observer.crashes[0].second, observer.crashes[1].second)
      << "both faults take effect at the same phase-2 boundary tuple";
}

TEST(Observer, RaisesAreUniqueInstances) {
  TreeScenarioConfig cfg;
  cfg.seed = 62;
  cfg.numVertices = 16;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 14;
  const TreeProblem problem = makeTreeScenario(cfg);

  CountingObserver observer;
  DistributedOptions opt;
  opt.observer = &observer;
  runDistributedUnitTree(problem, opt);

  std::vector<InstanceId> raised = observer.raises;
  std::sort(raised.begin(), raised.end());
  EXPECT_EQ(std::adjacent_find(raised.begin(), raised.end()), raised.end())
      << "an instance is raised at most once (its constraint gets tight)";
}

TEST(Observer, PerReasonRejectCountersSumToAggregate) {
  TreeScenarioConfig cfg;
  cfg.seed = 66;
  cfg.numVertices = 24;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 20;
  cfg.demands.accessProbability = 0.8;
  const TreeProblem problem = makeTreeScenario(cfg);

  // Crash a few processors so all three reject reasons are reachable
  // (OwnerCrashed needs a fault; the others occur naturally).
  MetricsRegistry metrics;
  CountingObserver observer;
  DistributedOptions opt;
  opt.observer = &observer;
  opt.metrics = &metrics;
  opt.crashProcessors = {0, 5};
  opt.crashAtTuple = 3;
  runDistributedUnitTree(problem, opt);

  const std::int64_t total = metrics.counter("protocol.rejects").value();
  const std::int64_t byReason =
      metrics.counter("protocol.rejects.owner_crashed").value() +
      metrics.counter("protocol.rejects.demand_satisfied").value() +
      metrics.counter("protocol.rejects.capacity_exceeded").value();
  EXPECT_EQ(total, byReason)
      << "per-reason reject counters must partition the aggregate";
  EXPECT_EQ(total, static_cast<std::int64_t>(observer.rejects.size()));
  EXPECT_GT(total, 0) << "the scenario actually rejected something";
  // Each per-reason counter agrees with the observer's own tally of the
  // reasons it was handed.
  EXPECT_EQ(metrics.counter("protocol.rejects.owner_crashed").value(),
            observer.rejectsByReason[static_cast<std::size_t>(
                RejectReason::OwnerCrashed)]);
  EXPECT_EQ(metrics.counter("protocol.rejects.demand_satisfied").value(),
            observer.rejectsByReason[static_cast<std::size_t>(
                RejectReason::DemandSatisfied)]);
  EXPECT_EQ(metrics.counter("protocol.rejects.capacity_exceeded").value(),
            observer.rejectsByReason[static_cast<std::size_t>(
                RejectReason::CapacityExceeded)]);
}

TEST(Observer, NullObserverIsFine) {
  TreeScenarioConfig cfg;
  cfg.seed = 63;
  cfg.numVertices = 12;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 8;
  const TreeProblem problem = makeTreeScenario(cfg);
  DistributedOptions opt;
  opt.observer = nullptr;
  EXPECT_NO_THROW(runDistributedUnitTree(problem, opt));
}

}  // namespace
}  // namespace treesched
