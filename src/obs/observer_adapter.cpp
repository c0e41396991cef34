#include "obs/observer_adapter.hpp"

#include <array>

namespace treesched {

namespace {

// Static bucket tables: resolving an instrument must not allocate bound
// vectors on every engine construction (one construction per online
// epoch — the NullSink zero-allocation regression measures whole runs).
constexpr std::array<double, 18> kExpBuckets = {
    1,   2,   4,    8,    16,   32,   64,    128,   256,
    512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072};
constexpr std::array<double, 33> kLubyBuckets = {
    0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 16,
    17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32};

}  // namespace

TracingObserver::TracingObserver(Tracer* tracer, MetricsRegistry* metrics,
                                 LedgerSink* ledger, ProtocolObserver* next)
    : tracer_(tracer),
      trace_(tracer != nullptr && tracer->enabled()),
      ledger_(ledger != nullptr && ledger->enabled() ? ledger : nullptr),
      next_(next) {
  if (metrics != nullptr) {
    epochs_ = &metrics->counter("protocol.epochs");
    stages_ = &metrics->counter("protocol.stages");
    steps_ = &metrics->counter("protocol.active_steps");
    raises_ = &metrics->counter("protocol.raises");
    accepts_ = &metrics->counter("protocol.accepts");
    rejects_ = &metrics->counter("protocol.rejects");
    rejectsByReason_[static_cast<std::size_t>(RejectReason::OwnerCrashed)] =
        &metrics->counter("protocol.rejects.owner_crashed");
    rejectsByReason_[static_cast<std::size_t>(
        RejectReason::DemandSatisfied)] =
        &metrics->counter("protocol.rejects.demand_satisfied");
    rejectsByReason_[static_cast<std::size_t>(
        RejectReason::CapacityExceeded)] =
        &metrics->counter("protocol.rejects.capacity_exceeded");
    crashes_ = &metrics->counter("protocol.crash_events");
    participants_ =
        &metrics->histogram("protocol.step_participants", kExpBuckets);
    misSize_ = &metrics->histogram("protocol.mis_size", kExpBuckets);
    lubyRounds_ = &metrics->histogram("protocol.luby_rounds", kLubyBuckets);
  }
}

void TracingObserver::closeStep() {
  if (stepBegin_ < 0) return;
  tracer_->span("step", "protocol", 0, stepBegin_,
                {{"epoch", curEpoch_}, {"stage", curStage_},
                 {"step", curStep_}});
  stepBegin_ = -1;
}

void TracingObserver::closeStage() {
  if (stageBegin_ < 0) return;
  tracer_->span("stage", "protocol", 0, stageBegin_,
                {{"epoch", curEpoch_}, {"stage", curStage_}});
  stageBegin_ = -1;
}

void TracingObserver::closeEpoch() {
  if (epochBegin_ < 0) return;
  tracer_->span("epoch", "protocol", 0, epochBegin_, {{"epoch", curEpoch_}});
  epochBegin_ = -1;
}

void TracingObserver::onEpochBegin(std::int32_t epoch,
                                   std::int32_t groupMembers) {
  if (epochs_ != nullptr) epochs_->add(1);
  if (trace_) {
    closeStep();
    closeStage();
    closeEpoch();
    const std::int64_t t = tracer_->now();
    if (phase1Begin_ < 0) phase1Begin_ = t;
    epochBegin_ = t;
    curEpoch_ = epoch;
  }
  if (next_ != nullptr) next_->onEpochBegin(epoch, groupMembers);
}

void TracingObserver::onStageBegin(std::int32_t epoch, std::int32_t stage,
                                   double target) {
  if (stages_ != nullptr) stages_->add(1);
  if (trace_) {
    closeStep();
    closeStage();
    stageBegin_ = tracer_->now();
    curStage_ = stage;
  }
  if (next_ != nullptr) next_->onStageBegin(epoch, stage, target);
}

void TracingObserver::onStepStart(std::int32_t epoch, std::int32_t stage,
                                  std::int32_t step,
                                  std::int32_t participants) {
  if (steps_ != nullptr) {
    steps_->add(1);
    participants_->record(static_cast<double>(participants));
  }
  if (trace_) {
    closeStep();
    stepBegin_ = tracer_->now();
    curStep_ = step;
  }
  if (next_ != nullptr) next_->onStepStart(epoch, stage, step, participants);
}

void TracingObserver::onMisComplete(std::int64_t tuple, std::int32_t lubyRounds,
                                    std::int32_t misSize) {
  if (misSize_ != nullptr) {
    misSize_->record(static_cast<double>(misSize));
    lubyRounds_->record(static_cast<double>(lubyRounds));
  }
  if (trace_ && stepBegin_ >= 0) {
    tracer_->span("mis", "protocol", 0, stepBegin_,
                  {{"tuple", tuple}, {"luby_rounds", lubyRounds},
                   {"mis_size", misSize}});
  }
  if (next_ != nullptr) next_->onMisComplete(tuple, lubyRounds, misSize);
}

void TracingObserver::onEvent(const LedgerEvent& event) {
  const std::int64_t tuple = event.tuple;
  const InstanceId instance = event.instance;
  switch (event.kind) {
    case LedgerEventKind::DualRaise:
      if (raises_ != nullptr) raises_->add(1);
      if (trace_) {
        tracer_->instant("raise", "protocol", 0,
                         {{"tuple", tuple}, {"instance", instance}});
      }
      break;
    case LedgerEventKind::Crash:
      if (crashes_ != nullptr) crashes_->add(1);
      if (trace_) {
        tracer_->instant("crash", "protocol", 0,
                         {{"processor", event.demand}, {"tuple", tuple}});
      }
      break;
    case LedgerEventKind::Admitted:
      if (accepts_ != nullptr) accepts_->add(1);
      if (trace_) {
        tracer_->instant("accept", "protocol", 0,
                         {{"tuple", tuple}, {"instance", instance}});
      }
      break;
    case LedgerEventKind::Rejected: {
      const auto reason = static_cast<std::size_t>(event.reason);
      if (rejects_ != nullptr) {
        rejects_->add(1);
        rejectsByReason_[reason]->add(1);
      }
      if (trace_) {
        tracer_->instant("reject", "protocol", 0,
                         {{"tuple", tuple}, {"instance", instance},
                          {"reason", static_cast<std::int64_t>(reason)}});
      }
      break;
    }
    default:
      break;
  }
  if (ledger_ != nullptr) ledger_->onEvent(event);
  if (next_ != nullptr) next_->onEvent(event);
}

void TracingObserver::onPhase1Complete(std::int64_t activeSteps,
                                       std::int64_t raises) {
  if (trace_) {
    closeStep();
    closeStage();
    closeEpoch();
    if (phase1Begin_ >= 0) {
      tracer_->span("phase1", "protocol", 0, phase1Begin_,
                    {{"active_steps", activeSteps}, {"raises", raises}});
      phase1Begin_ = -1;
    }
    // The phase-2 span also covers the inter-phase slackness measurement
    // and local-view audit (no observer events fire in between).
    phase2Begin_ = tracer_->now();
  }
  if (next_ != nullptr) next_->onPhase1Complete(activeSteps, raises);
}

void TracingObserver::onPhase2Complete(std::int64_t accepts,
                                       std::int64_t rejects) {
  if (trace_ && phase2Begin_ >= 0) {
    tracer_->span("phase2", "protocol", 0, phase2Begin_,
                  {{"accepts", accepts}, {"rejects", rejects}});
    phase2Begin_ = -1;
  }
  if (next_ != nullptr) next_->onPhase2Complete(accepts, rejects);
}

}  // namespace treesched
