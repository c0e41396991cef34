#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/dynamic_universe.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "dist/sim_network.hpp"
#include "framework/lhs_tracker.hpp"
#include "framework/schedule.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "net/synchronizer.hpp"
#include "obs/metrics.hpp"
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

// ---- Communication adjacency validation ----

/// Whether `run` throws a CheckError naming `check`; a rejection by any
/// other check is a failure too, so each case pins the check it exercises.
template <class Run>
::testing::AssertionResult rejectedBy(const std::string& check, Run&& run) {
  try {
    run();
  } catch (const CheckError& e) {
    if (std::string(e.what()).find(check) != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "rejected by: " << e.what();
  }
  return ::testing::AssertionFailure() << "accepted";
}

/// A graph with exactly one defect, and the check that must reject it.
struct AdjacencyDefect {
  std::string name;
  std::vector<std::vector<std::int32_t>> adjacency;
  std::string check;

  friend void PrintTo(const AdjacencyDefect& defect, std::ostream* os) {
    *os << defect.name;
  }
};

class AdjacencyRejection : public ::testing::TestWithParam<AdjacencyDefect> {};

// The validator and both transport constructors reject each defect.
TEST_P(AdjacencyRejection, EveryEntryPointRejects) {
  const AdjacencyDefect& defect = GetParam();
  const auto& adjacency = defect.adjacency;
  const auto n = static_cast<std::int32_t>(adjacency.size());
  EXPECT_TRUE(rejectedBy(defect.check, [&] {
    validateCommunicationAdjacency(adjacency);
  }));
  EXPECT_TRUE(rejectedBy(defect.check, [&] { SimNetwork net(adjacency); }));
  EXPECT_TRUE(rejectedBy(defect.check, [&] {
    AlphaSynchronizer sync(adjacency, ShardPlacement::identity(n),
                           AsyncConfig{});
  }));
}

INSTANTIATE_TEST_SUITE_P(
    Defects, AdjacencyRejection,
    ::testing::Values(
        // Both rows repeat their entry, so the graph is its own transpose:
        // only the duplicate check can reject it.
        AdjacencyDefect{"duplicate", {{1, 1}, {0, 0}},
                        "adjacency list duplicate-free"},
        AdjacencyDefect{"out_of_range", {{1, 2}, {0}},
                        "adjacency entry in range"},
        AdjacencyDefect{"negative", {{1, -1}, {0}},
                        "adjacency entry in range"},
        AdjacencyDefect{"self_loop", {{0}}, "no self loops"},
        AdjacencyDefect{"asymmetric", {{1}, {}}, "adjacency symmetric"}),
    [](const ::testing::TestParamInfo<AdjacencyDefect>& info) {
      return info.param.name;
    });

TEST(AdjacencyValidation, AcceptsUnsortedRows) {
  // A triangle plus a pendant vertex, with rows 0 and 2 out of order.
  const std::vector<std::vector<std::int32_t>> adjacency{
      {2, 1}, {0, 2}, {3, 1, 0}, {2}};
  EXPECT_NO_THROW(validateCommunicationAdjacency(adjacency));
  EXPECT_NO_THROW(SimNetwork net(adjacency));
  EXPECT_NO_THROW(AlphaSynchronizer sync(
      adjacency, ShardPlacement::identity(4), AsyncConfig{}));
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
  std::vector<InstanceId> active;
  for (InstanceId i = 0; i < dynamic.numInstances(); ++i) {
    active.push_back(i);
  }
  DistributedOptions dopt;
  dopt.seed = 7;
  dopt.misRoundBudget = 8;
  dopt.stepsPerStage = 4;

  SimNetwork cleanBus(prepared.adjacency);
  std::vector<double> cleanLhs(active.size(), 0.0);
  const Phase1Result clean =
      runDistributedPhase1(dynamic, cleanBus, dopt, active, cleanLhs, contexts);
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
  std::vector<double> lossyLhs(active.size(), 0.0);
  const Phase1Result epoch =
      runDistributedPhase1(dynamic, lossy, dopt, active, lossyLhs, contexts);
  EXPECT_TRUE(lossy.hid());
  EXPECT_FALSE(epoch.localViewsConsistent);
  for (DemandId d = 0; d < dynamic.numDemands(); ++d) {
    ProcessorContext fresh;
    fresh.init(dynamic, d);
    EXPECT_TRUE(contexts[static_cast<std::size_t>(d)] == fresh)
        << "demand " << d;
  }
}

// ---- Protocol: phase 1 updates the caller's LHS in place ----

TEST(DistProtocol, Phase1AppliesEachRaiseToTheWarmLhsOnce) {
  const TreeProblem problem = treeCase(23, 32, 30, 3);
  const PreparedRun prepared = prepareUnitTreeRun(problem);
  DynamicUniverse dynamic = makeDynamicTreeUniverse(problem);
  std::vector<ProcessorContext> contexts(
      static_cast<std::size_t>(dynamic.numDemands()));
  for (DemandId d = 0; d < dynamic.numDemands(); ++d) {
    dynamic.addDemand(d);
    contexts[static_cast<std::size_t>(d)].init(dynamic, d);
  }
  std::vector<InstanceId> odd;
  std::vector<InstanceId> even;
  for (InstanceId i = 0; i < dynamic.numInstances(); ++i) {
    (dynamic.instance(i).demand % 2 == 0 ? even : odd).push_back(i);
  }

  // A first run over the odd demands leaves the warm start: its beta
  // raises reach the even demands' instances on shared edges.
  DistributedOptions dopt;
  dopt.seed = 7;
  dopt.misRoundBudget = 8;
  dopt.stepsPerStage = 4;
  std::vector<double> lhs(static_cast<std::size_t>(dynamic.numInstances()),
                          0.0);
  SimNetwork firstBus(prepared.adjacency);
  runDistributedPhase1(dynamic, firstBus, dopt, odd, lhs, contexts);
  const std::vector<double> warm = lhs;

  // The second run, over the even demands, starts from it. Its beta
  // raises move the odd demands' instances too.
  dopt.seed = 8;
  SimNetwork bus(prepared.adjacency);
  const Phase1Result run =
      runDistributedPhase1(dynamic, bus, dopt, even, lhs, contexts);
  EXPECT_TRUE(run.localViewsConsistent);
  ASSERT_FALSE(run.raiseLog.empty());

  // lhs == warm with the raise log applied once, in log order.
  std::vector<double> expected = warm;
  for (const DualRaiseRecord& raise : run.raiseLog) {
    applyRaiseToLhs(dynamic, dopt.rule, raise.instance,
                    dynamic.critical(raise.instance),
                    {raise.alphaIncrement, raise.betaIncrement}, expected);
  }
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i], expected[i]) << "instance " << i;
  }
}

// ---- Protocol: sender declarations on the async wire ----

/// Forwards to another transport, but rewrites each sender declaration:
/// `forward` false drops every declaration (each round undeclared), and
/// `omit` >= 0 leaves that demand out of every declaration. Records the
/// first demand to broadcast.
class DeclarationRewritingTransport final : public Transport {
 public:
  DeclarationRewritingTransport(Transport& inner, bool forward,
                                DemandId omit = -1)
      : inner_(inner), forward_(forward), omit_(omit) {}

  DemandId firstSender() const { return firstSender_; }

  std::int32_t numProcessors() const override {
    return inner_.numProcessors();
  }
  std::span<const std::int32_t> neighbors(std::int32_t p) const override {
    return inner_.neighbors(p);
  }
  void broadcast(const Message& message) override {
    if (firstSender_ < 0) firstSender_ = message.from;
    inner_.broadcast(message);
  }
  void declareSenders(std::span<const std::int32_t> senders) override {
    if (!forward_) return;
    kept_.assign(senders.begin(), senders.end());
    std::erase(kept_, omit_);
    inner_.declareSenders(kept_);
  }
  void endRound() override { inner_.endRound(); }
  void endSilentRounds(std::int64_t count) override {
    inner_.endSilentRounds(count);
  }
  std::span<const Message> inbox(std::int32_t p) const override {
    return inner_.inbox(p);
  }
  void appendActiveInboxes(std::vector<std::int32_t>& out) const override {
    inner_.appendActiveInboxes(out);
  }
  void attachRunner(ParallelRunner* runner) override {
    inner_.attachRunner(runner);
  }
  const NetworkStats& stats() const override { return inner_.stats(); }

 private:
  Transport& inner_;
  bool forward_;
  DemandId omit_;
  DemandId firstSender_ = -1;
  std::vector<std::int32_t> kept_;
};

/// A lossy wire sharded onto four processors, so markers and payload
/// both retransmit and some traffic stays local.
AlphaSynchronizer lossyShardedWire(const TreeProblem& problem,
                                   const PreparedRun& prepared) {
  AsyncConfig net;
  net.seed = 5;
  net.link.latency.model = LatencyModel::Uniform;
  net.link.latency.spread = 2.0;
  net.link.dropProbability = 0.2;
  return AlphaSynchronizer(
      prepared.adjacency,
      ShardPlacement::build(ShardStrategy::Locality, problem.access, 4),
      net);
}

DistributedOptions declarationRunOptions() {
  DistributedOptions dopt;
  dopt.seed = 9;
  dopt.misRoundBudget = 8;
  dopt.stepsPerStage = 4;
  return dopt;
}

TEST(DistProtocol, DroppedDeclarationsCostMarkersNotTheSchedule) {
  const TreeProblem problem = treeCase(31, 32, 30, 3);
  const PreparedRun prepared = prepareUnitTreeRun(problem);
  const DistributedOptions dopt = declarationRunOptions();

  AlphaSynchronizer declared = lossyShardedWire(problem, prepared);
  const DistributedResult sparse = runDistributedOverTransport(
      prepared.universe, prepared.layering, declared, dopt);

  AlphaSynchronizer wire = lossyShardedWire(problem, prepared);
  DeclarationRewritingTransport dropping(wire, /*forward=*/false);
  const DistributedResult dense = runDistributedOverTransport(
      prepared.universe, prepared.layering, dropping, dopt);

  const DistributedResult bus = runDistributedUnitTree(problem, dopt);
  EXPECT_EQ(sparse.solution.instances, bus.solution.instances);
  EXPECT_EQ(dense.solution.instances, bus.solution.instances);
  EXPECT_EQ(dense.profit, sparse.profit);
  EXPECT_TRUE(sparse.localViewsConsistent);
  EXPECT_EQ(dense.network.messages, sparse.network.messages);
  EXPECT_GT(sparse.network.markerTransmissions, 0);
  EXPECT_GT(dense.network.markerTransmissions,
            sparse.network.markerTransmissions);
}

TEST(DistProtocol, UndeclaredPossibleSenderThrows) {
  const TreeProblem problem = treeCase(31, 32, 30, 3);
  const PreparedRun prepared = prepareUnitTreeRun(problem);
  const DistributedOptions dopt = declarationRunOptions();

  AlphaSynchronizer probeWire = lossyShardedWire(problem, prepared);
  DeclarationRewritingTransport probe(probeWire, /*forward=*/true);
  runDistributedOverTransport(prepared.universe, prepared.layering, probe,
                              dopt);
  const DemandId sender = probe.firstSender();
  ASSERT_GE(sender, 0);

  AlphaSynchronizer wire = lossyShardedWire(problem, prepared);
  DeclarationRewritingTransport omitting(wire, /*forward=*/true, sender);
  EXPECT_THROW(runDistributedOverTransport(prepared.universe,
                                           prepared.layering, omitting, dopt),
               CheckError);
}

TEST(DistProtocol, MarkerAndPayloadGaugesSumToTransmissions) {
  const TreeProblem problem = treeCase(31, 32, 30, 3);
  const PreparedRun prepared = prepareUnitTreeRun(problem);
  DistributedOptions dopt = declarationRunOptions();
  MetricsRegistry metrics;
  dopt.metrics = &metrics;

  AlphaSynchronizer wire = lossyShardedWire(problem, prepared);
  const DistributedResult result = runDistributedOverTransport(
      prepared.universe, prepared.layering, wire, dopt);

  const double markers = metrics.gauge("net.marker_transmissions").value();
  const double payload = metrics.gauge("net.payload_transmissions").value();
  EXPECT_GT(markers, 0);
  EXPECT_GT(payload, 0);
  EXPECT_EQ(markers + payload, metrics.gauge("net.transmissions").value());
  EXPECT_EQ(markers,
            static_cast<double>(result.network.markerTransmissions));
  EXPECT_EQ(metrics.gauge("net.transmissions").value(),
            static_cast<double>(result.network.transmissions));
  EXPECT_GT(result.network.retransmissions, 0);
}

// ---- Protocol: lookahead safe markers ----

/// One round boundary as a recording transport saw it.
struct RoundRecord {
  bool silent = false;             ///< charged by endSilentRounds
  std::vector<DemandId> declared;  ///< sorted, duplicate-free
  std::vector<Message> sent;       ///< the round's broadcasts
  std::int64_t markers = 0;        ///< marker transmissions it cost
};

/// Forwards to another transport and records every round: its
/// declaration, its broadcasts and the marker transmissions it cost. A
/// silent batch records one entry per round it charges.
class RecordingTransport final : public Transport {
 public:
  explicit RecordingTransport(Transport& inner) : inner_(inner) {}

  const std::vector<RoundRecord>& rounds() const { return rounds_; }
  std::int64_t endRoundCalls() const { return endRoundCalls_; }

  std::int32_t numProcessors() const override {
    return inner_.numProcessors();
  }
  std::span<const std::int32_t> neighbors(std::int32_t p) const override {
    return inner_.neighbors(p);
  }
  void broadcast(const Message& message) override {
    current_.sent.push_back(message);
    inner_.broadcast(message);
  }
  void declareSenders(std::span<const std::int32_t> senders) override {
    current_.declared.insert(current_.declared.end(), senders.begin(),
                             senders.end());
    inner_.declareSenders(senders);
  }
  void endRound() override {
    const std::int64_t markersBefore = inner_.stats().markerTransmissions;
    inner_.endRound();
    ++endRoundCalls_;
    auto& declared = current_.declared;
    std::sort(declared.begin(), declared.end());
    declared.erase(std::unique(declared.begin(), declared.end()),
                   declared.end());
    current_.markers = inner_.stats().markerTransmissions - markersBefore;
    rounds_.push_back(std::move(current_));
    current_ = {};
  }
  void endSilentRounds(std::int64_t count) override {
    inner_.endSilentRounds(count);
    RoundRecord silent;
    silent.silent = true;
    rounds_.insert(rounds_.end(), static_cast<std::size_t>(count), silent);
  }
  std::span<const Message> inbox(std::int32_t p) const override {
    return inner_.inbox(p);
  }
  void appendActiveInboxes(std::vector<std::int32_t>& out) const override {
    inner_.appendActiveInboxes(out);
  }
  void attachRunner(ParallelRunner* runner) override {
    inner_.attachRunner(runner);
  }
  void attachTelemetry(Tracer* tracer, MetricsRegistry* metrics) override {
    inner_.attachTelemetry(tracer, metrics);
  }
  const NetworkStats& stats() const override { return inner_.stats(); }

 private:
  Transport& inner_;
  std::vector<RoundRecord> rounds_;
  RoundRecord current_;
  std::int64_t endRoundCalls_ = 0;
};

/// The demands that broadcast a `kind` message in `round`, ascending.
std::vector<DemandId> sendersOf(const RoundRecord& round, MessageKind kind) {
  std::vector<DemandId> out;
  for (const Message& m : round.sent) {
    if (m.kind == kind) out.push_back(m.from);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(LookaheadMarkers, QuietRoundsPayTheMarkersOfSilenceOnlyOwnersKnow) {
  const TreeProblem problem = treeCase(31, 32, 30, 3);
  const PreparedRun prepared = prepareUnitTreeRun(problem);
  const DistributedOptions dopt = declarationRunOptions();
  // Lossless, one processor per demand: a declared owner's markers are
  // one transmission per neighbour.
  AlphaSynchronizer wire(prepared.adjacency,
                         ShardPlacement::identity(
                             static_cast<std::int32_t>(problem.demands.size())),
                         AsyncConfig{});
  RecordingTransport recorder(wire);
  const DistributedResult result = runDistributedOverTransport(
      prepared.universe, prepared.layering, recorder, dopt);
  ASSERT_EQ(result.network.retransmissions, 0);
  const auto markerPairs = [&](const std::vector<DemandId>& owners) {
    std::int64_t pairs = 0;
    for (const DemandId d : owners) {
      pairs += static_cast<std::int64_t>(wire.neighbors(d).size());
    }
    return pairs;
  };

  const std::int32_t budget = dopt.misRoundBudget;
  const std::int64_t roundsPerStep = 2 * budget + 1;
  const std::vector<RoundRecord>& rounds = recorder.rounds();
  ASSERT_GE(static_cast<std::int64_t>(rounds.size()),
            result.scheduledSteps * roundsPerStep);
  std::int64_t silentSteps = 0;
  std::int64_t earlyFinishes = 0;
  for (std::int64_t step = 0; step < result.scheduledSteps; ++step) {
    const auto first = static_cast<std::size_t>(step * roundsPerStep);
    const RoundRecord& head = rounds[first];
    if (head.sent.empty()) {
      // Silent by satisfaction: the first round carries the declared
      // owners' markers, and every later round is silent.
      if (!head.silent) {
        ++silentSteps;
        EXPECT_FALSE(head.declared.empty());
        EXPECT_EQ(head.markers, markerPairs(head.declared)) << "step " << step;
      }
      for (std::int64_t r = 1; r < roundsPerStep; ++r) {
        EXPECT_TRUE(rounds[first + static_cast<std::size_t>(r)].silent)
            << "step " << step << " round " << r;
      }
      continue;
    }
    // An MIS that finished in Luby round j < budget: announce round j + 1
    // carries no payload, only the markers of the owners round j knocked
    // out (its announcers that did not join); the rest is silent.
    for (std::int32_t j = 1; j < budget; ++j) {
      const RoundRecord& next = rounds[first + static_cast<std::size_t>(2 * j)];
      if (next.silent || !next.sent.empty()) continue;
      const std::vector<DemandId> announcers = sendersOf(
          rounds[first + static_cast<std::size_t>(2 * j - 2)],
          MessageKind::MisActive);
      const std::vector<DemandId> joiners = sendersOf(
          rounds[first + static_cast<std::size_t>(2 * j - 1)],
          MessageKind::MisJoin);
      std::vector<DemandId> knockedOut;
      std::set_difference(announcers.begin(), announcers.end(),
                          joiners.begin(), joiners.end(),
                          std::back_inserter(knockedOut));
      EXPECT_EQ(next.declared, knockedOut) << "step " << step;
      EXPECT_EQ(next.markers, markerPairs(knockedOut)) << "step " << step;
      for (std::int32_t r = 2 * j + 1; r < 2 * budget; ++r) {
        EXPECT_TRUE(rounds[first + static_cast<std::size_t>(r)].silent)
            << "step " << step << " round " << r;
      }
      ++earlyFinishes;
      break;
    }
  }
  EXPECT_GT(silentSteps, 0) << "no step was silent by satisfaction";
  EXPECT_GT(earlyFinishes, 0) << "no MIS finished early";
}

TEST(LookaheadMarkers, PromiseCoversExactlyTheStagesItNames) {
  // Four demands on disjoint paths of one network: no two instances
  // conflict, but all four demands neighbour each other.
  TreeProblem problem;
  problem.numVertices = 8;
  problem.networks.push_back(makePathTree(0, 8));
  for (DemandId d = 0; d < 4; ++d) {
    Demand demand;
    demand.id = d;
    demand.u = 2 * d;
    demand.v = 2 * d + 1;
    demand.profit = 2.0 + d;
    problem.demands.push_back(demand);
    problem.access.push_back({0});
  }
  const PreparedRun prepared = prepareUnitTreeRun(problem);
  DynamicUniverse dynamic = makeDynamicTreeUniverse(problem);
  std::vector<ProcessorContext> contexts(4);
  for (DemandId d = 0; d < 4; ++d) {
    dynamic.addDemand(d);
    contexts[static_cast<std::size_t>(d)].init(dynamic, d);
  }
  std::vector<InstanceId> active;
  for (DemandId d = 0; d < 4; ++d) {
    const auto owned = dynamic.instancesOfDemand(d);
    active.insert(active.end(), owned.begin(), owned.end());
  }
  std::sort(active.begin(), active.end());
  DistributedOptions dopt;
  dopt.misRoundBudget = 4;
  dopt.stepsPerStage = 2;
  const DynamicLayeringView layering = dynamic.layeringView();
  const StagePlan plan =
      makeStagePlan(SchedulePolicy::Staged, dopt.rule, dopt.epsilon,
                    std::max<std::int32_t>(1, layering.maxCriticalSize),
                    dopt.hmin);
  const std::vector<double> targets = plan.stageTargets();
  const std::int32_t due = 5;
  ASSERT_GT(plan.numStages, due);

  // Demand 0's instance starts satisfied up to stage due - 1 only.
  const InstanceId watched = dynamic.instancesOfDemand(0)[0];
  const double profit = dynamic.instance(watched).profit;
  std::vector<double> lhs(static_cast<std::size_t>(dynamic.numInstances()),
                          0.0);
  lhs[static_cast<std::size_t>(watched)] =
      0.5 * (targets[due - 2] + targets[due - 1]) * profit;
  ASSERT_EQ(firstShortStage(targets, 1, lhs[static_cast<std::size_t>(watched)],
                            profit),
            due);

  SimNetwork bus(prepared.adjacency);
  RecordingTransport recorder(bus);
  const Phase1Result run =
      runDistributedPhase1(dynamic, recorder, dopt, active, lhs, contexts);
  EXPECT_TRUE(run.localViewsConsistent);

  const std::int64_t roundsPerStep = 2 * dopt.misRoundBudget + 1;
  const std::int64_t group = layering.group[static_cast<std::size_t>(watched)];
  const auto firstRound = [&](std::int32_t stage) -> const RoundRecord& {
    const std::int64_t tuple =
        (group * plan.numStages + stage - 1) * dopt.stepsPerStage;
    return recorder.rounds()[static_cast<std::size_t>(tuple * roundsPerStep)];
  };
  const auto declares = [](const RoundRecord& round, DemandId d) {
    return std::binary_search(round.declared.begin(), round.declared.end(),
                              d);
  };
  EXPECT_TRUE(declares(firstRound(1), 0)) << "every owner is due at stage 1";
  for (std::int32_t stage = 2; stage < due; ++stage) {
    EXPECT_FALSE(declares(firstRound(stage), 0)) << "stage " << stage;
  }
  EXPECT_TRUE(declares(firstRound(due), 0));
  EXPECT_EQ(sendersOf(firstRound(due), MessageKind::MisActive),
            std::vector<DemandId>{0});

  // ... and it is raised at that stage, not before.
  const std::int64_t dueTuple =
      (group * plan.numStages + due - 1) * dopt.stepsPerStage;
  std::int64_t raisedAt = -1;
  for (const DualRaiseRecord& raise : run.raiseLog) {
    if (raise.instance == watched) raisedAt = raise.tuple;
  }
  EXPECT_GE(raisedAt, dueTuple);
  EXPECT_LT(raisedAt, dueTuple + dopt.stepsPerStage);
}

TEST(LookaheadMarkers, FewStepsPerStageStillMatchTheCentralizedEngine) {
  // With one or two steps per stage, owners are still short after a
  // stage's last step; they must be due at the next stage.
  for (const std::int32_t steps : {1, 2}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const TreeProblem problem = treeCase(40 + seed, 24, 24, 3);
      InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
      const Layering layering = buildTreeLayering(problem, universe);

      DistributedOptions dopt;
      dopt.seed = seed;
      dopt.misRoundBudget = 4;
      dopt.stepsPerStage = steps;
      const DistributedResult dist = runDistributedUnitTree(problem, dopt);

      FrameworkConfig copt;
      copt.seed = dopt.seed;
      copt.misRoundBudget = dopt.misRoundBudget;
      copt.fixedSchedule = true;
      copt.stepsPerStage = steps;
      const TwoPhaseResult central = runTwoPhase(universe, layering, copt);

      std::vector<InstanceId> centralSorted = central.solution.instances;
      std::sort(centralSorted.begin(), centralSorted.end());
      EXPECT_EQ(dist.solution.instances, centralSorted)
          << "steps " << steps << " seed " << seed;
      EXPECT_EQ(dist.raises, central.stats.raises)
          << "steps " << steps << " seed " << seed;
      EXPECT_EQ(dist.dualObjective, central.dualObjective)
          << "steps " << steps << " seed " << seed;
      EXPECT_EQ(dist.lambdaMeasured, central.stats.lambdaMeasured)
          << "steps " << steps << " seed " << seed;
      EXPECT_TRUE(dist.localViewsConsistent);
    }
  }
}

TEST(LookaheadMarkers, SilentRoundsSplitTheRoundCount) {
  const TreeProblem problem = treeCase(31, 32, 30, 3);
  const PreparedRun prepared = prepareUnitTreeRun(problem);
  DistributedOptions dopt = declarationRunOptions();

  const auto check = [&](Transport& transport) {
    RecordingTransport recorder(transport);
    MetricsRegistry metrics;
    dopt.metrics = &metrics;
    const DistributedResult result = runDistributedOverTransport(
        prepared.universe, prepared.layering, recorder, dopt);
    EXPECT_GT(result.network.silentRounds, 0);
    EXPECT_EQ(result.network.rounds,
              result.network.silentRounds + recorder.endRoundCalls());
    EXPECT_EQ(metrics.counter("net.silent_rounds").value(),
              result.network.silentRounds);
    return result.network;
  };
  SimNetwork bus(prepared.adjacency);
  const NetworkStats sync = check(bus);
  AlphaSynchronizer wire = lossyShardedWire(problem, prepared);
  const NetworkStats async = check(wire);
  EXPECT_EQ(sync.rounds, async.rounds);
  EXPECT_EQ(sync.silentRounds, async.silentRounds);
}

}  // namespace
}  // namespace treesched
