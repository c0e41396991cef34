#include "policy/config.hpp"

namespace treesched {

DistributedOptions SchedulerConfig::distributedOptions() const {
  DistributedOptions options;
  static_cast<ExecutionConfig&>(options) = distributed;
  options.epsilon = core.epsilon;
  options.rule = core.rule;
  options.hmin = core.hmin;
  options.seed = core.seed;
  options.misRoundBudget = core.misRoundBudget;
  options.stepsPerStage = core.stepsPerStage;
  return options;
}

SchedulerConfig SchedulerConfig::fromDistributedOptions(
    const DistributedOptions& options) {
  SchedulerConfig result;
  result.core.epsilon = options.epsilon;
  result.core.rule = options.rule;
  result.core.hmin = options.hmin;
  result.core.seed = options.seed;
  result.core.misRoundBudget = options.misRoundBudget;
  result.core.stepsPerStage = options.stepsPerStage;
  result.distributed = options;
  return result;
}

SchedulerConfig SchedulerConfig::fromOnlineSolver(
    const OnlineSolverConfig& config) {
  return fromDistributedOptions(config);
}

}  // namespace treesched
