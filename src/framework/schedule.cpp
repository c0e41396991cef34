#include "framework/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace treesched {

double StagePlan::stageTarget(std::int32_t j) const {
  switch (policy) {
    case SchedulePolicy::Staged:
      return 1.0 - std::pow(xi, j);
    case SchedulePolicy::Threshold:
      return lambdaTarget;
  }
  throw CheckError("unknown SchedulePolicy");
}

std::vector<double> StagePlan::stageTargets() const {
  std::vector<double> targets;
  targets.reserve(static_cast<std::size_t>(numStages));
  for (std::int32_t j = 1; j <= numStages; ++j) {
    targets.push_back(stageTarget(j));
    checkThat(j == 1 || targets[targets.size() - 2] <= targets.back(),
              "stage targets rise", __FILE__, __LINE__);
  }
  return targets;
}

std::int32_t firstShortStage(std::span<const double> targets,
                             std::int32_t stage, double lhs, double profit) {
  checkThat(stage >= 0 && static_cast<std::size_t>(stage) <= targets.size(),
            "stage within the plan", __FILE__, __LINE__);
  // Short at one stage means short at every later one: binary search.
  const auto first = std::partition_point(
      targets.begin() + stage, targets.end(),
      [&](double target) { return !fallsShort(lhs, profit, target); });
  return static_cast<std::int32_t>(first - targets.begin()) + 1;
}

StagePlan makeStagePlan(SchedulePolicy policy, RaiseRule rule, double epsilon,
                        std::int32_t delta, double hmin) {
  checkThat(epsilon > 0 && epsilon < 1, "epsilon in (0,1)", __FILE__, __LINE__);
  checkThat(delta >= 1, "delta >= 1", __FILE__, __LINE__);
  StagePlan plan;
  plan.policy = policy;
  if (policy == SchedulePolicy::Threshold) {
    plan.numStages = 1;
    plan.lambdaTarget = 1.0 / (5.0 + epsilon);
    return plan;
  }
  switch (rule) {
    case RaiseRule::Unit: {
      const double deltaPrime = static_cast<double>(delta) + 1.0;
      plan.xi = (2.0 * deltaPrime) / (2.0 * deltaPrime + 1.0);
      break;
    }
    case RaiseRule::Narrow: {
      checkThat(hmin > 0 && hmin <= 0.5, "hmin in (0, 1/2] for narrow rule",
                __FILE__, __LINE__);
      const double k = 1.0 + 2.0 * static_cast<double>(delta) *
                                 static_cast<double>(delta);
      plan.xi = k / (k + hmin);
      break;
    }
  }
  // Smallest b with xi^b <= epsilon.
  plan.numStages = std::max<std::int32_t>(
      1, static_cast<std::int32_t>(
             std::ceil(std::log(epsilon) / std::log(plan.xi))));
  plan.lambdaTarget = 1.0 - epsilon;
  return plan;
}

std::int32_t fixedScheduleStepsPerStage(double profitMax, double profitMin) {
  const double spread = std::max(2.0, profitMax / profitMin);
  return 4 + 2 * static_cast<std::int32_t>(std::ceil(std::log2(spread)));
}

}  // namespace treesched
