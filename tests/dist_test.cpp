#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/dynamic_universe.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "dist/sim_network.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "util/check.hpp"

namespace treesched {
namespace {

TreeProblem treeCase(std::uint64_t seed, std::int32_t n, std::int32_t m,
                     std::int32_t r, double accessProb = 0.7) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = n;
  cfg.numNetworks = r;
  cfg.demands.numDemands = m;
  cfg.demands.accessProbability = accessProb;
  cfg.demands.profitMax = 8.0;
  return makeTreeScenario(cfg);
}

// ---- SimNetwork ----

TEST(SimNetwork, DeliversToNeighborsNextRound) {
  SimNetwork net({{1}, {0, 2}, {1}});
  net.broadcast({MessageKind::MisActive, 1, 42, 0.0});
  net.endRound();
  EXPECT_EQ(net.inbox(0).size(), 1u);
  EXPECT_EQ(net.inbox(2).size(), 1u);
  EXPECT_TRUE(net.inbox(1).empty());
  EXPECT_EQ(net.inbox(0)[0].instance, 42);
  EXPECT_EQ(net.stats().rounds, 1);
  EXPECT_EQ(net.stats().messages, 2);
}

TEST(SimNetwork, InboxClearedEachRound) {
  SimNetwork net({{1}, {0}});
  net.broadcast({MessageKind::MisActive, 0, 1, 0.0});
  net.endRound();
  EXPECT_EQ(net.inbox(1).size(), 1u);
  net.endRound();
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(SimNetwork, RejectsAsymmetricGraph) {
  EXPECT_THROW(SimNetwork({{1}, {}}), CheckError);
}

TEST(SimNetwork, RejectsSelfLoop) {
  std::vector<std::vector<std::int32_t>> adjacency{{0}};
  EXPECT_THROW(SimNetwork net(std::move(adjacency)), CheckError);
}

TEST(SimNetwork, SilentRoundsCount) {
  SimNetwork net({{1}, {0}});
  net.endSilentRounds(5);
  EXPECT_EQ(net.stats().rounds, 5);
  EXPECT_EQ(net.stats().busyRounds, 0);
}

TEST(SimNetwork, InboxSortedCanonically) {
  SimNetwork net({{2}, {2}, {0, 1}});
  net.broadcast({MessageKind::MisActive, 1, 9, 0.0});
  net.broadcast({MessageKind::MisActive, 0, 3, 0.0});
  net.endRound();
  const auto inbox = net.inbox(2);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].instance, 3);
  EXPECT_EQ(inbox[1].instance, 9);
}

// ---- Communication graph ----

TEST(CommunicationGraph, SharedResourceMeansEdge) {
  // p0 on {0}, p1 on {0,1}, p2 on {1}: p0-p1 and p1-p2, not p0-p2.
  const auto adj = communicationGraph({{0}, {0, 1}, {1}}, 2);
  EXPECT_EQ(adj[0], (std::vector<std::int32_t>{1}));
  EXPECT_EQ(adj[1], (std::vector<std::int32_t>{0, 2}));
  EXPECT_EQ(adj[2], (std::vector<std::int32_t>{1}));
}

TEST(CommunicationGraph, NoDuplicateEdges) {
  // Sharing two resources still yields one adjacency entry.
  const auto adj = communicationGraph({{0, 1}, {0, 1}}, 2);
  EXPECT_EQ(adj[0], (std::vector<std::int32_t>{1}));
}

TEST(CommunicationGraph, EmptyAccessListIsIsolated) {
  // A demand accessing nothing shares no network: isolated vertex, and
  // it must not perturb anyone else's adjacency.
  const auto adj = communicationGraph({{0}, {}, {0}}, 1);
  EXPECT_EQ(adj[0], (std::vector<std::int32_t>{2}));
  EXPECT_TRUE(adj[1].empty());
  EXPECT_EQ(adj[2], (std::vector<std::int32_t>{0}));
}

TEST(CommunicationGraph, AllDemandsIsolatedYieldsEmptyGraph) {
  const auto adj = communicationGraph({{}, {}}, 3);
  EXPECT_TRUE(adj[0].empty());
  EXPECT_TRUE(adj[1].empty());
}

TEST(CommunicationGraph, DemandAccessingEveryNetworkNeighborsAll) {
  // p1 touches every network, so it is adjacent to every other demand —
  // exactly once each, with no self loop.
  const auto adj = communicationGraph({{0}, {0, 1, 2}, {1}, {2}}, 3);
  EXPECT_EQ(adj[1], (std::vector<std::int32_t>{0, 2, 3}));
  EXPECT_EQ(adj[0], (std::vector<std::int32_t>{1}));
  EXPECT_EQ(adj[2], (std::vector<std::int32_t>{1}));
  EXPECT_EQ(adj[3], (std::vector<std::int32_t>{1}));
}

TEST(CommunicationGraph, DuplicateNetworkIdsCollapse) {
  // Repeated ids in an access list must not duplicate edges or create
  // self loops; the result must be valid transport adjacency.
  const auto adj = communicationGraph({{0, 0, 0}, {0, 0}}, 1);
  EXPECT_EQ(adj[0], (std::vector<std::int32_t>{1}));
  EXPECT_EQ(adj[1], (std::vector<std::int32_t>{0}));
  validateCommunicationAdjacency(adj);
}

TEST(CommunicationGraph, RejectsOutOfRangeNetworkId) {
  EXPECT_THROW(communicationGraph({{2}}, 2), CheckError);
  EXPECT_THROW(communicationGraph({{-1}}, 2), CheckError);
}

// ---- Protocol: equivalence with the centralized engine (E11) ----

struct EquivCase {
  std::uint64_t seed;
  std::int32_t n;
  std::int32_t m;
  std::int32_t r;
};

class DistEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(DistEquivalenceTest, BitIdenticalToCentralizedFixedSchedule) {
  const auto& param = GetParam();
  const TreeProblem problem = treeCase(param.seed, param.n, param.m, param.r);

  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const Layering layering = buildTreeLayering(problem, universe);

  DistributedOptions dopt;
  dopt.seed = 99 + param.seed;
  dopt.misRoundBudget = 40;
  dopt.stepsPerStage = 12;
  const DistributedResult dist = runDistributedUnitTree(problem, dopt);

  FrameworkConfig copt;
  copt.seed = dopt.seed;
  copt.misRoundBudget = dopt.misRoundBudget;
  copt.fixedSchedule = true;
  copt.stepsPerStage = dopt.stepsPerStage;
  const TwoPhaseResult central = runTwoPhase(universe, layering, copt);

  // The distributed result is collected sorted; acceptance order differs.
  std::vector<InstanceId> centralSorted = central.solution.instances;
  std::sort(centralSorted.begin(), centralSorted.end());
  EXPECT_EQ(dist.solution.instances, centralSorted)
      << "distributed and centralized runs must select identical instances";
  EXPECT_DOUBLE_EQ(dist.profit, central.profit);
  EXPECT_DOUBLE_EQ(dist.dualObjective, central.dualObjective);
  EXPECT_DOUBLE_EQ(dist.lambdaMeasured, central.stats.lambdaMeasured);
  EXPECT_TRUE(dist.localViewsConsistent)
      << "every processor's local dual view must agree with ground truth";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistEquivalenceTest,
    ::testing::Values(EquivCase{1, 16, 12, 2}, EquivCase{2, 24, 20, 3},
                      EquivCase{3, 12, 8, 1}, EquivCase{4, 32, 25, 2},
                      EquivCase{5, 20, 30, 4}),
    [](const ::testing::TestParamInfo<EquivCase>& info) {
      return "s" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.n) + "_m" +
             std::to_string(info.param.m) + "_r" +
             std::to_string(info.param.r);
    });

TEST(DistProtocol, LineEquivalence) {
  LineScenarioConfig cfg;
  cfg.seed = 7;
  cfg.numSlots = 32;
  cfg.numResources = 2;
  cfg.demands.numDemands = 15;
  cfg.demands.windowSlack = 0.5;
  cfg.demands.processingMax = 6;
  cfg.demands.accessProbability = 0.8;
  const LineProblem problem = makeLineScenario(cfg);

  InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  const Layering layering = buildLineLayering(problem, universe);

  DistributedOptions dopt;
  dopt.seed = 5;
  dopt.misRoundBudget = 40;
  dopt.stepsPerStage = 12;
  const DistributedResult dist = runDistributedUnitLine(problem, dopt);

  FrameworkConfig copt;
  copt.seed = 5;
  copt.misRoundBudget = 40;
  copt.fixedSchedule = true;
  copt.stepsPerStage = 12;
  const TwoPhaseResult central = runTwoPhase(universe, layering, copt);

  std::vector<InstanceId> centralSorted = central.solution.instances;
  std::sort(centralSorted.begin(), centralSorted.end());
  EXPECT_EQ(dist.solution.instances, centralSorted);
  EXPECT_DOUBLE_EQ(dist.profit, central.profit);
  EXPECT_TRUE(dist.localViewsConsistent);
}

// ---- Protocol: guarantees on its own ----

TEST(DistProtocol, SolutionFeasibleAndLambdaReached) {
  const TreeProblem problem = treeCase(11, 24, 20, 2);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  DistributedOptions opt;
  opt.epsilon = 0.2;
  const DistributedResult result = runDistributedUnitTree(problem, opt);
  requireFeasible(universe, result.solution);
  EXPECT_GE(result.lambdaMeasured, result.lambdaTarget - 1e-9)
      << "the fixed schedule must still reach (1-eps)-satisfaction";
  EXPECT_GE(result.dualUpperBound, result.profit - 1e-9);
}

TEST(DistProtocol, MessageSizeIsConstantInM) {
  const TreeProblem problem = treeCase(12, 24, 25, 3);
  const DistributedResult result = runDistributedUnitTree(problem);
  // O(M) message size: every message is at most 2 units (DualRaise).
  EXPECT_LE(result.network.maxMessagePayload, 2);
  EXPECT_GT(result.network.messages, 0);
}

TEST(DistProtocol, RoundsMatchScheduleShape) {
  const TreeProblem problem = treeCase(13, 16, 12, 2);
  DistributedOptions opt;
  opt.misRoundBudget = 10;
  opt.stepsPerStage = 6;
  const DistributedResult result = runDistributedUnitTree(problem, opt);
  // Phase 1 contributes scheduledSteps * (2B + 1); phase 2 one round per
  // tuple.
  const std::int64_t expected =
      result.scheduledSteps * (2 * 10 + 1) + result.scheduledSteps;
  EXPECT_EQ(result.network.rounds, expected);
  EXPECT_LE(result.network.busyRounds, result.network.rounds);
  EXPECT_GT(result.activeSteps, 0);
  EXPECT_LE(result.activeSteps, result.scheduledSteps);
}

TEST(DistProtocol, DisconnectedProcessorsStillScheduled) {
  // Two demands on disjoint resources: no communication possible, but both
  // can be scheduled independently.
  TreeProblem problem;
  problem.numVertices = 4;
  problem.networks.push_back(makePathTree(0, 4));
  problem.networks.push_back(makePathTree(1, 4));
  Demand d0;
  d0.id = 0;
  d0.u = 0;
  d0.v = 2;
  Demand d1;
  d1.id = 1;
  d1.u = 1;
  d1.v = 3;
  problem.demands = {d0, d1};
  problem.access = {{0}, {1}};
  const DistributedResult result = runDistributedUnitTree(problem);
  EXPECT_EQ(result.solution.instances.size(), 2u);
  EXPECT_EQ(result.network.messages, 0) << "no neighbours, no messages";
}

TEST(DistProtocol, DeterministicAcrossRuns) {
  const TreeProblem problem = treeCase(14, 20, 16, 2);
  const DistributedResult a = runDistributedUnitTree(problem);
  const DistributedResult b = runDistributedUnitTree(problem);
  EXPECT_EQ(a.solution.instances, b.solution.instances);
  EXPECT_EQ(a.network.messages, b.network.messages);
  EXPECT_EQ(a.network.rounds, b.network.rounds);
}

TEST(DistProtocol, NarrowRuleRuns) {
  TreeScenarioConfig cfg;
  cfg.seed = 15;
  cfg.numVertices = 16;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 14;
  cfg.demands.heights = HeightMode::Narrow;
  cfg.demands.hmin = 0.25;
  const TreeProblem problem = makeTreeScenario(cfg);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  DistributedOptions opt;
  opt.rule = RaiseRule::Narrow;
  opt.hmin = 0.25;
  const DistributedResult result = runDistributedUnitTree(problem, opt);
  requireFeasible(universe, result.solution);
  EXPECT_GE(result.lambdaMeasured, result.lambdaTarget - 1e-9);
  EXPECT_TRUE(result.localViewsConsistent);
}

// ---- Protocol: the local-view audit catches a lost raise ----

/// Forwards to a SimNetwork but hides one DualRaise, the first one for
/// `instance`, from `receiver`'s inbox: a loss the protocol itself never
/// notices. Only the local-view audit can.
class RaiseHidingTransport final : public Transport {
 public:
  RaiseHidingTransport(SimNetwork& inner, DemandId receiver,
                       InstanceId instance)
      : inner_(inner), receiver_(receiver), instance_(instance) {}

  bool hid() const { return hid_; }

  std::int32_t numProcessors() const override {
    return inner_.numProcessors();
  }
  std::span<const std::int32_t> neighbors(std::int32_t p) const override {
    return inner_.neighbors(p);
  }
  void broadcast(const Message& message) override {
    inner_.broadcast(message);
  }
  void endRound() override {
    inner_.endRound();
    hiding_ = false;
    if (hid_) return;
    kept_.clear();
    for (const Message& m : inner_.inbox(receiver_)) {
      if (!hid_ && m.kind == MessageKind::DualRaise &&
          m.instance == instance_) {
        hid_ = hiding_ = true;
        continue;
      }
      kept_.push_back(m);
    }
  }
  void endSilentRounds(std::int64_t count) override {
    inner_.endSilentRounds(count);
    hiding_ = false;
  }
  std::span<const Message> inbox(std::int32_t p) const override {
    if (hiding_ && p == receiver_) return kept_;
    return inner_.inbox(p);
  }
  void appendActiveInboxes(std::vector<std::int32_t>& out) const override {
    const auto begin = static_cast<std::ptrdiff_t>(out.size());
    inner_.appendActiveInboxes(out);
    if (hiding_ && kept_.empty()) {
      out.erase(std::remove(out.begin() + begin, out.end(), receiver_),
                out.end());
    }
  }
  void attachRunner(ParallelRunner* runner) override {
    inner_.attachRunner(runner);
  }
  const NetworkStats& stats() const override { return inner_.stats(); }

 private:
  SimNetwork& inner_;
  DemandId receiver_;
  InstanceId instance_;
  bool hid_ = false;     ///< the raise has been hidden
  bool hiding_ = false;  ///< ... in the round just ended
  std::vector<Message> kept_;
};

/// The first raise of `log` with a critical edge that another demand's
/// instance uses, plus that demand: it tracks the edge, so missing the
/// raise leaves its beta view wrong. {-1, kNoInstance} when none exists.
std::pair<DemandId, InstanceId> informativeRaise(
    const DynamicUniverse& universe, const std::vector<DualRaiseRecord>& log) {
  for (const DualRaiseRecord& raise : log) {
    const DemandId owner = universe.instance(raise.instance).demand;
    for (const GlobalEdgeId e : universe.critical(raise.instance)) {
      for (const InstanceId j : universe.instancesOnEdge(e)) {
        const DemandId d = universe.instance(j).demand;
        if (d != owner) return {d, raise.instance};
      }
    }
  }
  return {-1, kNoInstance};
}

TEST(DistProtocol, AuditCatchesAHiddenRaise) {
  const TreeProblem problem = treeCase(21, 32, 30, 3);
  const PreparedRun prepared = prepareUnitTreeRun(problem);
  DynamicUniverse dynamic = makeDynamicTreeUniverse(problem);
  std::vector<ProcessorContext> contexts(
      static_cast<std::size_t>(dynamic.numDemands()));
  for (DemandId d = 0; d < dynamic.numDemands(); ++d) {
    dynamic.addDemand(d);
    contexts[static_cast<std::size_t>(d)].init(dynamic, d);
  }
  WarmStart warm;
  for (InstanceId i = 0; i < dynamic.numInstances(); ++i) {
    warm.activeInstances.push_back(i);
  }
  DistributedOptions dopt;
  dopt.seed = 7;
  dopt.misRoundBudget = 8;
  dopt.stepsPerStage = 4;

  SimNetwork cleanBus(prepared.adjacency);
  const Phase1Result clean =
      runDistributedPhase1(dynamic, cleanBus, dopt, warm, contexts);
  ASSERT_TRUE(clean.localViewsConsistent);
  const auto [receiver, instance] = informativeRaise(dynamic, clean.raiseLog);
  ASSERT_GE(receiver, 0) << "no raise reaches a demand tracking its edges";

  // The one-shot run still completes both phases; the audit reads false.
  {
    SimNetwork bus(prepared.adjacency);
    RaiseHidingTransport lossy(bus, receiver, instance);
    const DistributedResult oneShot = runDistributedOverTransport(
        prepared.universe, prepared.layering, lossy, dopt);
    EXPECT_TRUE(lossy.hid());
    EXPECT_FALSE(oneShot.localViewsConsistent);
  }

  // The online epoch's run on the persistent contexts: the audit reads
  // false, and the contexts still come back with a zero dual view.
  SimNetwork bus(prepared.adjacency);
  RaiseHidingTransport lossy(bus, receiver, instance);
  const Phase1Result epoch =
      runDistributedPhase1(dynamic, lossy, dopt, warm, contexts);
  EXPECT_TRUE(lossy.hid());
  EXPECT_FALSE(epoch.localViewsConsistent);
  for (DemandId d = 0; d < dynamic.numDemands(); ++d) {
    ProcessorContext fresh;
    fresh.init(dynamic, d);
    EXPECT_TRUE(contexts[static_cast<std::size_t>(d)] == fresh)
        << "demand " << d;
  }
}

}  // namespace
}  // namespace treesched
