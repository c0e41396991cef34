// Gates for the policy registry (policy/registry.hpp): the layered
// config's defaults and conversions, registry sanity, the Scheduler
// contract on every preset x every registered id, thread-count
// determinism, bit-identity of the registry reference against the
// direct runTwoPhase entry point, and the scheduler-generic online
// epoch loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <set>
#include <vector>

#include "decomp/layering.hpp"
#include "dist/sim_network.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/churn_engine.hpp"
#include "policy/online_policy.hpp"
#include "policy/registry.hpp"
#include "util/check.hpp"

namespace treesched {
namespace {

// Reduced scales keep the full preset x policy sweep fast enough for
// the sanitizer legs while still touching every preset's structure.
constexpr std::int32_t kOneshotDemands = 120;
constexpr std::int32_t kChurnDemands = 80;

SchedulerConfig testConfig(std::uint64_t seed) {
  SchedulerConfig config;
  config.core.seed = seed;
  config.core.epsilon = 0.3;
  config.core.misRoundBudget = 4;
  config.core.stepsPerStage = 2;
  return config;
}

// ---- Config layers (policy/config.hpp) --------------------------------

TEST(SchedulerConfigLayers, RegistryRunsTheFixedSchedule) {
  EXPECT_TRUE(SchedulerConfig{}.core.fixedSchedule);
}

TEST(SchedulerConfigLayers, OnlineSolverKeepsItsDefaults) {
  const OnlineSolverConfig config{};
  EXPECT_EQ(config.epsilon, 0.3);
  EXPECT_EQ(config.misRoundBudget, 4);
  EXPECT_EQ(config.stepsPerStage, 2);
}

TEST(SchedulerConfigLayers, DistributedOptionsRoundTripEveryField) {
  NullObserver observer;
  Tracer tracer;
  MetricsRegistry metrics;
  NullLedger ledger;
  DistributedOptions options;
  options.epsilon = 0.25;
  options.rule = RaiseRule::Narrow;
  options.hmin = 0.4;
  options.seed = 77;
  options.misRoundBudget = 3;
  options.stepsPerStage = 5;
  options.threads = 3;
  options.crashProcessors = {2, 5};
  options.crashAtTuple = 9;
  options.observer = &observer;
  options.tracer = &tracer;
  options.metrics = &metrics;
  options.ledger = &ledger;

  const DistributedOptions back =
      SchedulerConfig::fromDistributedOptions(options).distributedOptions();
  EXPECT_EQ(back.epsilon, options.epsilon);
  EXPECT_EQ(back.rule, options.rule);
  EXPECT_EQ(back.hmin, options.hmin);
  EXPECT_EQ(back.seed, options.seed);
  EXPECT_EQ(back.misRoundBudget, options.misRoundBudget);
  EXPECT_EQ(back.stepsPerStage, options.stepsPerStage);
  EXPECT_EQ(back.threads, options.threads);
  EXPECT_EQ(back.crashProcessors, options.crashProcessors);
  EXPECT_EQ(back.crashAtTuple, options.crashAtTuple);
  EXPECT_EQ(back.observer, options.observer);
  EXPECT_EQ(back.tracer, options.tracer);
  EXPECT_EQ(back.metrics, options.metrics);
  EXPECT_EQ(back.ledger, options.ledger);
}

TEST(SchedulerConfigLayers, OnlineSolverLiftsToTheFixedScheduleFramework) {
  OnlineSolverConfig config;
  config.rule = RaiseRule::Narrow;
  config.hmin = 0.5;
  config.seed = 41;
  const FrameworkConfig framework =
      SchedulerConfig::fromOnlineSolver(config).framework();
  EXPECT_EQ(framework.epsilon, config.epsilon);
  EXPECT_EQ(framework.rule, config.rule);
  EXPECT_EQ(framework.hmin, config.hmin);
  EXPECT_EQ(framework.seed, config.seed);
  EXPECT_EQ(framework.misRoundBudget, config.misRoundBudget);
  EXPECT_EQ(framework.stepsPerStage, config.stepsPerStage);
  EXPECT_EQ(framework.schedule, SchedulePolicy::Staged);
  EXPECT_TRUE(framework.fixedSchedule);
}

TEST(SchedulerConfigLayers, OnlineSolverRejectsCrashInjection) {
  const ChurnTreeScenario scenario = makeFlashCrowdTree50k(7, 40);
  DynamicUniverse universe = makeDynamicTreeUniverse(scenario.pool);
  SimNetwork bus(std::vector<std::vector<std::int32_t>>(
      static_cast<std::size_t>(scenario.pool.numDemands())));
  OnlineSolverConfig config;
  config.crashProcessors = {0};
  const auto build = [&] { IncrementalSolver solver(universe, config, bus); };
  EXPECT_THROW(build(), CheckError);
}

TEST(SchedulerRegistry, SanityUniqueNonEmptyAndRegexFilter) {
  const SchedulerRegistry& registry = SchedulerRegistry::all();
  const std::vector<std::string> all = registry.ids();
  ASSERT_GE(all.size(), 4u);  // the tournament floor
  const std::set<std::string> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), all.size()) << "duplicate registered id";
  EXPECT_EQ(registry.ids(std::regex(".*")), all);

  // The family the PR promises: reference, a two_phase variant per
  // axis, both src/exact baselines and the literature baseline.
  for (const char* id :
       {"two_phase", "two_phase/full_mis", "two_phase/threshold",
        "two_phase/local_search", "greedy", "greedy/local_search",
        "emr_line_pack"}) {
    EXPECT_TRUE(registry.has(id)) << id;
  }
  const std::vector<std::string> variants =
      registry.ids(std::regex("two_phase/.*"));
  EXPECT_EQ(variants.size(), 3u);
  EXPECT_TRUE(registry.info("two_phase").certified);
  EXPECT_TRUE(registry.info("two_phase").distributed);
  EXPECT_FALSE(registry.info("greedy").certified);

  EXPECT_THROW(registry.make("no_such_policy"), CheckError);
  EXPECT_THROW(registry.info("no_such_policy"), CheckError);
}

TEST(SchedulerRegistry, DuplicateRegistrationThrows) {
  SchedulerRegistry& registry = SchedulerRegistry::all();
  SchedulerInfo clash{"two_phase", "clash", true, true};
  EXPECT_THROW(
      registry.add(clash,
                   [](const SchedulerConfig&) -> std::unique_ptr<Scheduler> {
                     return nullptr;
                   }),
      CheckError);
}

/// Every registered id must produce a feasible, correctly priced,
/// reproducible solution on every preset of the catalogue.
TEST(SchedulerContract, EveryPolicyFeasibleOnEveryPreset) {
  const SchedulerRegistry& registry = SchedulerRegistry::all();
  for (const ScenarioPresetInfo& preset : scenarioPresets()) {
    const ScenarioProblem scenario =
        buildScenarioProblem(preset.name, 11, kOneshotDemands);
    for (const std::string& id : registry.ids()) {
      const auto scheduler = registry.make(id, testConfig(11));
      const ScheduleOutcome outcome = scheduler->solve(
          {scenario.universe, scenario.layering, scenario.access, {},
           nullptr});
      SCOPED_TRACE(preset.name + " / " + id);
      requireFeasible(scenario.universe, outcome.solution);
      EXPECT_GT(outcome.profit, 0);
      EXPECT_NEAR(outcome.profit,
                  solutionProfit(scenario.universe, outcome.solution), 1e-9);

      // Determinism: a second instantiation replays bit-identically.
      const ScheduleOutcome again =
          registry.make(id, testConfig(11))
              ->solve({scenario.universe, scenario.layering, scenario.access,
                       {}, nullptr});
      EXPECT_EQ(outcome.solution.instances, again.solution.instances);
      EXPECT_EQ(outcome.profit, again.profit);
      EXPECT_EQ(outcome.messages, again.messages);
    }
  }
}

/// Solutions must draw only from the restricted active set.
TEST(SchedulerContract, RestrictionIsHonoured) {
  const ScenarioProblem scenario =
      buildScenarioProblem("cdn_tree_250k", 5, kOneshotDemands);
  // Restrict to the instances of even demands only.
  std::vector<InstanceId> active;
  for (DemandId d = 0; d < scenario.universe.numDemands(); d += 2) {
    const auto span = scenario.universe.instancesOfDemand(d);
    active.insert(active.end(), span.begin(), span.end());
  }
  std::sort(active.begin(), active.end());
  const std::set<InstanceId> allowed(active.begin(), active.end());

  for (const std::string& id : SchedulerRegistry::all().ids()) {
    const auto scheduler = SchedulerRegistry::all().make(id, testConfig(5));
    const ScheduleOutcome outcome = scheduler->solve(
        {scenario.universe, scenario.layering, scenario.access, active,
         nullptr});
    SCOPED_TRACE(id);
    requireFeasible(scenario.universe, outcome.solution);
    for (const InstanceId i : outcome.solution.instances) {
      EXPECT_TRUE(allowed.count(i)) << "instance " << i
                                    << " outside the active set";
    }
  }
}

/// Distributed entries are bit-identical at any thread count.
TEST(SchedulerContract, DeterministicAcrossThreadCounts) {
  for (const char* preset : {"cdn_tree_250k", "metro_line_100k"}) {
    const ScenarioProblem scenario =
        buildScenarioProblem(preset, 3, kOneshotDemands);
    for (const std::string& id : SchedulerRegistry::all().ids()) {
      SchedulerConfig one = testConfig(3);
      one.distributed.threads = 1;
      SchedulerConfig eight = testConfig(3);
      eight.distributed.threads = 8;
      const ScheduleOutcome a =
          SchedulerRegistry::all().make(id, one)->solve(
              {scenario.universe, scenario.layering, scenario.access, {},
               nullptr});
      const ScheduleOutcome b =
          SchedulerRegistry::all().make(id, eight)->solve(
              {scenario.universe, scenario.layering, scenario.access, {},
               nullptr});
      SCOPED_TRACE(std::string(preset) + " / " + id);
      EXPECT_EQ(a.solution.instances, b.solution.instances);
      EXPECT_EQ(a.profit, b.profit);
      EXPECT_EQ(a.messages, b.messages);
      EXPECT_EQ(a.rounds, b.rounds);
    }
  }
}

/// The registry reference entry IS runTwoPhase: same schedule bit for
/// bit, same revenue, same dual bound — the api_redesign's no-drift
/// gate (it runs distributed over a Transport, the direct call runs
/// the centralized engine; the fixed-schedule equivalence makes them
/// one algorithm).
TEST(SchedulerContract, TwoPhaseEntryMatchesDirectRunTwoPhase) {
  for (const char* preset :
       {"cdn_tree_250k", "metro_line_100k", "lossy_wide_area_tree"}) {
    const ScenarioProblem scenario =
        buildScenarioProblem(preset, 17, kOneshotDemands);
    const SchedulerConfig config = testConfig(17);
    const ScheduleOutcome viaRegistry =
        SchedulerRegistry::all().make("two_phase", config)
            ->solve({scenario.universe, scenario.layering, scenario.access,
                     {}, nullptr});

    const TwoPhaseResult direct = runTwoPhase(
        scenario.universe, scenario.layering, config.framework());
    std::vector<InstanceId> directSorted = direct.solution.instances;
    std::sort(directSorted.begin(), directSorted.end());

    SCOPED_TRACE(preset);
    EXPECT_EQ(viaRegistry.solution.instances, directSorted);
    EXPECT_EQ(viaRegistry.profit, direct.profit);
    EXPECT_EQ(viaRegistry.dualUpperBound, direct.dualUpperBound);
    EXPECT_GT(viaRegistry.messages, 0) << "reference must pay wire cost";
  }
}

/// The scheduler-generic online loop: every epoch's admission is
/// feasible over the demands alive that epoch, seeds follow
/// epochProtocolSeed, and the run replays bit-identically.
TEST(OnlinePolicy, SchedulerEpochLoopIsFeasibleAndDeterministic) {
  const ScenarioProblem scenario =
      buildScenarioProblem("flash_crowd_50k", 23, kChurnDemands);
  ChurnEngineConfig config;
  config.epochLength = scenario.epochLength;
  config.solver.seed = 23;

  const ChurnRunResult run =
      runChurnWithScheduler(scenario, scenario.trace, config, "greedy");
  ASSERT_FALSE(run.epochs.empty());
  EXPECT_EQ(run.epochs.size(),
            batchTrace(scenario.trace, config.epochLength).size());
  for (const EpochOutcome& epoch : run.epochs) {
    requireFeasible(scenario.universe, epoch.solution);
    EXPECT_EQ(epoch.protocolSeed,
              epochProtocolSeed(config.solver.seed, epoch.epoch));
  }
  requireFeasible(scenario.universe, run.finalSolution);

  const ChurnRunResult replay =
      runChurnWithScheduler(scenario, scenario.trace, config, "greedy");
  ASSERT_EQ(replay.epochs.size(), run.epochs.size());
  for (std::size_t k = 0; k < run.epochs.size(); ++k) {
    EXPECT_EQ(replay.epochs[k].solution.instances,
              run.epochs[k].solution.instances);
    EXPECT_EQ(replay.epochs[k].profit, run.epochs[k].profit);
  }

  // The "two_phase" id routes to the incremental churn engine.
  const ChurnRunResult reference =
      runChurnWithScheduler(scenario, scenario.trace, config, "two_phase");
  DynamicUniverse dynamic = scenario.treePool != nullptr
                                ? makeDynamicTreeUniverse(scenario.treePool)
                                : makeDynamicLineUniverse(scenario.linePool);
  const ChurnRunResult engine =
      runChurnOverTrace(dynamic, scenario.trace, config);
  ASSERT_EQ(reference.epochs.size(), engine.epochs.size());
  EXPECT_EQ(reference.finalSolution.instances,
            engine.finalSolution.instances);
  EXPECT_EQ(reference.finalProfit, engine.finalProfit);

  EXPECT_THROW(
      runChurnWithScheduler(scenario, scenario.trace, config, "no_such_policy"),
      CheckError);
}

}  // namespace
}  // namespace treesched
