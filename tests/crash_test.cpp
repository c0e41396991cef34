// Crash-stop fault injection in the distributed protocol (beyond the
// paper's reliable-processor model): survivors must still produce a
// feasible schedule, crashed demands must vanish from the output, and the
// surviving processors' local views must stay consistent.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/universe.hpp"
#include "dist/protocol.hpp"
#include "gen/scenario.hpp"

namespace treesched {
namespace {

TreeProblem crashProblem(std::uint64_t seed) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = 20;
  cfg.numNetworks = 2;
  cfg.demands.numDemands = 18;
  cfg.demands.accessProbability = 0.8;
  return makeTreeScenario(cfg);
}

TEST(CrashFaults, SurvivorsProduceFeasibleSchedule) {
  const TreeProblem problem = crashProblem(1);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);

  DistributedOptions opt;
  opt.crashProcessors = {0, 5, 9};
  opt.crashAtTuple = 3;
  const DistributedResult result = runDistributedUnitTree(problem, opt);

  EXPECT_EQ(result.crashedProcessors, 3);
  requireFeasible(universe, result.solution);
  for (const InstanceId i : result.solution.instances) {
    const DemandId d = universe.instance(i).demand;
    EXPECT_NE(d, 0);
    EXPECT_NE(d, 5);
    EXPECT_NE(d, 9);
  }
  EXPECT_TRUE(result.localViewsConsistent);
}

TEST(CrashFaults, CrashBeforeStartLosesOnlyThoseDemands) {
  const TreeProblem problem = crashProblem(2);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);

  DistributedOptions opt;
  opt.crashProcessors = {2};
  opt.crashAtTuple = 0;  // dead from the very first step
  const DistributedResult result = runDistributedUnitTree(problem, opt);
  EXPECT_EQ(result.crashedProcessors, 1);
  requireFeasible(universe, result.solution);
  EXPECT_GT(result.profit, 0) << "survivors still schedule";
  // Survivors reach the slackness target among themselves.
  EXPECT_GE(result.lambdaMeasured, result.lambdaTarget - 1e-9);
}

TEST(CrashFaults, CrashAtPhaseTwoDropsOnlyTheirAccepts) {
  const TreeProblem problem = crashProblem(3);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);

  const DistributedResult clean = runDistributedUnitTree(problem);

  DistributedOptions opt;
  opt.crashProcessors = {1, 3};
  opt.crashAtTuple = 1'000'000'000;  // past phase 1: crash at phase-2 start
  const DistributedResult result = runDistributedUnitTree(problem, opt);
  EXPECT_EQ(result.crashedProcessors, 2);
  requireFeasible(universe, result.solution);
  // Phase 1 ran identically, so the dual objective matches the clean run.
  EXPECT_DOUBLE_EQ(result.dualObjective, clean.dualObjective);
  for (const InstanceId i : result.solution.instances) {
    const DemandId d = universe.instance(i).demand;
    EXPECT_NE(d, 1);
    EXPECT_NE(d, 3);
  }
}

TEST(CrashFaults, NoCrashListMeansNoEffect) {
  const TreeProblem problem = crashProblem(4);
  const DistributedResult base = runDistributedUnitTree(problem);
  DistributedOptions opt;
  opt.crashAtTuple = 5;  // armed but empty crash list
  const DistributedResult result = runDistributedUnitTree(problem, opt);
  EXPECT_EQ(result.crashedProcessors, 0);
  EXPECT_EQ(result.solution.instances, base.solution.instances);
}

TEST(CrashFaults, AllProcessorsCrashedYieldsEmptySolution) {
  const TreeProblem problem = crashProblem(5);
  DistributedOptions opt;
  opt.crashAtTuple = 0;
  for (DemandId d = 0; d < problem.numDemands(); ++d) {
    opt.crashProcessors.push_back(d);
  }
  const DistributedResult result = runDistributedUnitTree(problem, opt);
  EXPECT_EQ(result.crashedProcessors, problem.numDemands());
  EXPECT_TRUE(result.solution.instances.empty());
  EXPECT_EQ(result.network.messages, 0);
}

TEST(CrashFaults, ProfitNeverNegativeAndBounded) {
  for (std::uint64_t seed = 10; seed <= 14; ++seed) {
    const TreeProblem problem = crashProblem(seed);
    InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
    DistributedOptions opt;
    opt.crashProcessors = {static_cast<DemandId>(seed % 18),
                           static_cast<DemandId>((seed * 7) % 18)};
    opt.crashAtTuple = static_cast<std::int64_t>(seed % 5);
    const DistributedResult result = runDistributedUnitTree(problem, opt);
    requireFeasible(universe, result.solution);
    EXPECT_GE(result.profit, 0);
  }
}

}  // namespace
}  // namespace treesched
