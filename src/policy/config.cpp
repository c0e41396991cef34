#include "policy/config.hpp"

namespace treesched {

FrameworkConfig SchedulerConfig::framework() const {
  FrameworkConfig config;
  config.epsilon = core.epsilon;
  config.raise = core.rule;
  config.schedule = core.schedule;
  config.hmin = core.hmin;
  config.seed = core.seed;
  config.misRoundBudget = core.misRoundBudget;
  config.fixedSchedule = core.fixedSchedule;
  config.stepsPerStage = core.stepsPerStage;
  config.stepCap = core.stepCap;
  return config;
}

DistributedOptions SchedulerConfig::distributedOptions() const {
  DistributedOptions options;
  options.epsilon = core.epsilon;
  options.rule = core.rule;
  options.hmin = core.hmin;
  options.seed = core.seed;
  options.threads = distributed.threads;
  options.misRoundBudget = core.misRoundBudget;
  options.stepsPerStage = core.stepsPerStage;
  options.crashProcessors = distributed.crashProcessors;
  options.crashAtTuple = distributed.crashAtTuple;
  options.observer = distributed.observer;
  options.tracer = distributed.tracer;
  options.metrics = distributed.metrics;
  options.ledger = distributed.ledger;
  return options;
}

SolverOptions SchedulerConfig::solverOptions() const {
  SolverOptions options;
  options.epsilon = core.epsilon;
  options.seed = core.seed;
  options.schedule = core.schedule;
  options.decomposition = core.decomposition;
  options.misRoundBudget = core.misRoundBudget;
  options.fixedSchedule = core.fixedSchedule;
  options.stepsPerStage = core.stepsPerStage;
  options.hmin = core.hmin == 1.0 ? 0.0 : core.hmin;  // 0 = derive
  return options;
}

OnlineSolverConfig SchedulerConfig::onlineSolver() const {
  OnlineSolverConfig config;
  config.epsilon = core.epsilon;
  config.rule = core.rule;
  config.hmin = core.hmin;
  config.seed = core.seed;
  config.misRoundBudget = core.misRoundBudget;
  config.stepsPerStage = core.stepsPerStage;
  config.threads = distributed.threads;
  config.tracer = distributed.tracer;
  config.metrics = distributed.metrics;
  config.ledger = distributed.ledger;
  config.series = online.series;
  config.rebalance = online.rebalance;
  return config;
}

SchedulerConfig SchedulerConfig::fromFramework(const FrameworkConfig& config) {
  SchedulerConfig result;
  result.core.epsilon = config.epsilon;
  result.core.rule = config.raise;
  result.core.schedule = config.schedule;
  result.core.hmin = config.hmin;
  result.core.seed = config.seed;
  result.core.misRoundBudget = config.misRoundBudget;
  result.core.fixedSchedule = config.fixedSchedule;
  result.core.stepsPerStage = config.stepsPerStage;
  result.core.stepCap = config.stepCap;
  return result;
}

SchedulerConfig SchedulerConfig::fromSolverOptions(
    const SolverOptions& options) {
  SchedulerConfig result;
  result.core.epsilon = options.epsilon;
  result.core.seed = options.seed;
  result.core.schedule = options.schedule;
  result.core.decomposition = options.decomposition;
  result.core.misRoundBudget = options.misRoundBudget;
  result.core.fixedSchedule = options.fixedSchedule;
  result.core.stepsPerStage = options.stepsPerStage;
  if (options.hmin > 0) result.core.hmin = options.hmin;
  return result;
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
  result.core.fixedSchedule = true;  // the protocol always runs fixed
  result.distributed.threads = options.threads;
  result.distributed.crashProcessors = options.crashProcessors;
  result.distributed.crashAtTuple = options.crashAtTuple;
  result.distributed.observer = options.observer;
  result.distributed.tracer = options.tracer;
  result.distributed.metrics = options.metrics;
  result.distributed.ledger = options.ledger;
  return result;
}

SchedulerConfig SchedulerConfig::fromOnlineSolver(
    const OnlineSolverConfig& config) {
  SchedulerConfig result;
  result.core.epsilon = config.epsilon;
  result.core.rule = config.rule;
  result.core.hmin = config.hmin;
  result.core.seed = config.seed;
  result.core.misRoundBudget = config.misRoundBudget;
  result.core.stepsPerStage = config.stepsPerStage;
  result.core.fixedSchedule = true;  // the online path always runs fixed
  result.distributed.threads = config.threads;
  result.distributed.tracer = config.tracer;
  result.distributed.metrics = config.metrics;
  result.distributed.ledger = config.ledger;
  result.online.series = config.series;
  result.online.rebalance = config.rebalance;
  return result;
}

}  // namespace treesched
