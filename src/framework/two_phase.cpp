#include "framework/two_phase.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/tolerances.hpp"
#include "framework/lhs_tracker.hpp"
#include "framework/mis.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace treesched {

namespace {

// Safety valve: a stage exceeding this many steps throws (logic bug).
constexpr std::int32_t kStepCap = 100000;

}  // namespace

double approximationBound(RaiseRule rule, std::int32_t delta, double lambda) {
  checkThat(lambda > 0, "lambda positive", __FILE__, __LINE__);
  switch (rule) {
    case RaiseRule::Unit:
      return (static_cast<double>(delta) + 1.0) / lambda;
    case RaiseRule::Narrow:
      return (2.0 * static_cast<double>(delta) * static_cast<double>(delta) +
              1.0) /
             lambda;
  }
  throw CheckError("unknown RaiseRule");
}

TwoPhaseResult runTwoPhase(const InstanceUniverse& universe,
                           const Layering& layering,
                           const FrameworkConfig& config) {
  std::vector<InstanceId> all(
      static_cast<std::size_t>(universe.numInstances()));
  for (InstanceId i = 0; i < universe.numInstances(); ++i) {
    all[static_cast<std::size_t>(i)] = i;
  }
  return runTwoPhaseRestricted(universe, layering, config, all);
}

TwoPhaseResult runTwoPhaseRestricted(const InstanceUniverse& universe,
                                     const Layering& layering,
                                     const FrameworkConfig& config,
                                     std::span<const InstanceId> active) {
  TwoPhaseResult result;
  const std::int32_t numInst = universe.numInstances();
  result.stats.delta = layering.maxCriticalSize;
  if (numInst == 0) {
    result.stats.lambdaTarget = 1.0;
    result.stats.lambdaMeasured = 1.0;
    return result;
  }

  const StagePlan plan =
      makeStagePlan(config.schedule, config.rule, config.epsilon,
                    std::max<std::int32_t>(1, layering.maxCriticalSize),
                    config.hmin);
  result.stats.lambdaTarget = plan.lambdaTarget;

  // Group membership lists (epoch k processes group k) over the active
  // restriction only; `active` must be ascending so the member lists come
  // out in the same order a full enumeration would produce.
  std::vector<std::vector<InstanceId>> members(
      static_cast<std::size_t>(layering.numGroups));
  for (std::size_t idx = 0; idx < active.size(); ++idx) {
    const InstanceId i = active[idx];
    checkIndex(i, numInst, "restricted active instance");
    checkThat(idx == 0 || active[idx - 1] < i,
              "restricted active set sorted ascending", __FILE__, __LINE__);
    const auto g = static_cast<std::size_t>(
        layering.group[static_cast<std::size_t>(i)]);
    members[g].push_back(i);
  }

  DualState dual(universe);
  LhsTracker lhs(universe, config.rule);

  std::int32_t stepsPerStage = config.stepsPerStage;
  if (config.fixedSchedule && stepsPerStage == 0) {
    stepsPerStage =
        fixedScheduleStepsPerStage(universe.profitMax(), universe.profitMin());
  }

  std::vector<InstanceId> unsatisfied;
  // ---- Phase 1 ----
  for (std::int32_t epoch = 0; epoch < layering.numGroups; ++epoch) {
    ++result.stats.epochs;
    const auto& group = members[static_cast<std::size_t>(epoch)];
    for (std::int32_t stage = 1; stage <= plan.numStages; ++stage) {
      ++result.stats.stages;
      const double target = plan.stageTarget(stage);
      std::int32_t stepsThisStage = 0;
      for (std::int32_t step = 1;; ++step) {
        if (config.fixedSchedule && step > stepsPerStage) break;
        checkThat(step <= kStepCap,
                  "stage exceeded step cap (non-termination bug?)", __FILE__,
                  __LINE__);
        unsatisfied.clear();
        for (const InstanceId i : group) {
          const double p = universe.instance(i).profit;
          if (lhs.lhs(i) < target * p - kSatisfyTolerance * p) {
            unsatisfied.push_back(i);
          }
        }
        if (unsatisfied.empty()) {
          if (!config.fixedSchedule) break;
          // Fixed schedule: the step happens (and costs rounds in the
          // simulator) but contributes nothing; skip the MIS locally.
          continue;
        }
        ++stepsThisStage;
        ++result.stats.steps;
        const std::uint64_t stepSeed =
            keyedHash(config.seed, static_cast<std::uint64_t>(epoch),
                      static_cast<std::uint64_t>(stage),
                      static_cast<std::uint64_t>(step));
        const MisResult mis = lubyMis(universe, unsatisfied, stepSeed,
                                      config.misRoundBudget);
        result.stats.misRounds += mis.rounds;
        for (const InstanceId i : mis.independent) {
          const InstanceRecord& rec = universe.instance(i);
          const double slack = rec.profit - lhs.lhs(i);
          checkThat(slack > 0, "raised instance had positive slack", __FILE__,
                    __LINE__);
          const auto critical = layering.critical(i);
          const RaiseAmounts amounts =
              computeRaise(config.rule, universe, i, critical, slack);
          applyRaise(dual, universe, i, critical, amounts);
          lhs.onAlphaRaise(rec.demand, amounts.alphaIncrement);
          for (const GlobalEdgeId e : critical) {
            lhs.onBetaRaise(e, amounts.betaIncrement);
          }
          ++result.stats.raises;
        }
        if (!mis.independent.empty()) {
          result.stack.push_back(mis.independent);
        }
      }
      result.stats.maxStepsInStage =
          std::max(result.stats.maxStepsInStage, stepsThisStage);
    }
  }

  // Measured slackness: min over the active instances of lhs / p (an
  // empty restriction is vacuously fully slack, matching the distributed
  // engine's measureSlackness()).
  double lambdaMeasured = std::numeric_limits<double>::infinity();
  for (const InstanceId i : active) {
    lambdaMeasured =
        std::min(lambdaMeasured, lhs.lhs(i) / universe.instance(i).profit);
  }
  if (active.empty()) lambdaMeasured = 1.0;
  result.stats.lambdaMeasured = lambdaMeasured;
  result.dualObjective = dual.objective();
  result.dualUpperBound =
      lambdaMeasured > 0 ? result.dualObjective / lambdaMeasured
                         : std::numeric_limits<double>::infinity();

  // ---- Phase 2 ----
  const FeasibilityOracle oracle = popStack(universe, result.stack);
  result.solution = oracle.solution();
  result.profit = oracle.profit();
  return result;
}

}  // namespace treesched
