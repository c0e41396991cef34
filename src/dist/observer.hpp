// Observation hooks into the distributed protocol.
//
// The protocol reports the events a distributed tracing facility would see:
// epoch/stage boundaries, step starts (with participant counts), completed
// MIS computations, dual raises, crash-stop faults taking effect, and
// phase-2 pops — accepts AND rejects, so over a full run every raise is
// accounted for exactly once (accepts + rejects == raises); a
// phase-1-only run (the online epoch) reports no pops. Tests use the
// hooks to cross-check the run-level counters; the examples use them for
// progress traces; obs/observer_adapter.hpp turns them into tracer spans
// and registry metrics. Silent steps (no unsatisfied instance in the
// scheduled group) are not observed.
#pragma once

#include <cstdint>

#include "core/demand.hpp"

namespace treesched {

/// Why a phase-2 stack pop did not admit its instance.
enum class RejectReason : std::uint8_t {
  OwnerCrashed,       ///< the owning processor is dead in phase 2
  DemandSatisfied,    ///< the demand already admitted another instance
  CapacityExceeded,   ///< an edge on the instance's path is full
};

/// Callback interface; every hook has a no-op default, so subclasses
/// override only what they need. Hooks fire in simulation order and only
/// for events that actually happen (crashed processors emit nothing).
class ProtocolObserver {
 public:
  virtual ~ProtocolObserver() = default;

  /// Phase 1 enters `epoch` (0-based); its scheduled group holds
  /// `groupMembers` instances of the run's active set (may be 0 — the
  /// epoch's steps are then all silent).
  virtual void onEpochBegin(std::int32_t /*epoch*/,
                            std::int32_t /*groupMembers*/) {}

  /// Phase 1 enters `stage` (1-based) of `epoch`; `target` is the
  /// stage's lambda target on the staged plan.
  virtual void onStageBegin(std::int32_t /*epoch*/, std::int32_t /*stage*/,
                            double /*target*/) {}

  /// An active phase-1 step begins: `epoch` is 0-based, `stage` and `step`
  /// 1-based (the schedule tuple); `participants` counts the unsatisfied
  /// instances entering the step's MIS (always > 0).
  virtual void onStepStart(std::int32_t /*epoch*/, std::int32_t /*stage*/,
                           std::int32_t /*step*/,
                           std::int32_t /*participants*/) {}

  /// The step's MIS computation finished after `lubyRounds` Luby rounds
  /// with `misSize` members. `tuple` is the 0-based global step index.
  virtual void onMisComplete(std::int64_t /*tuple*/,
                             std::int32_t /*lubyRounds*/,
                             std::int32_t /*misSize*/) {}

  /// `instance`'s dual constraint was made tight; `delta` is the alpha
  /// increment (> 0).
  virtual void onRaise(std::int64_t /*tuple*/, InstanceId /*instance*/,
                       double /*delta*/) {}

  /// Crash-stop fault injection took effect for `processor` at schedule
  /// tuple `tuple` (phase-2-only crashes report the first phase-2 pop
  /// tuple, i.e. the schedule size). Fires once per crashed processor,
  /// ascending.
  virtual void onCrash(DemandId /*processor*/, std::int64_t /*tuple*/) {}

  /// Phase 1 finished: `activeSteps` observed steps, `raises` raises.
  virtual void onPhase1Complete(std::int64_t /*activeSteps*/,
                                std::int64_t /*raises*/) {}

  /// Phase 2 accepted `instance` while popping `tuple`'s stack entry.
  virtual void onAccept(std::int64_t /*tuple*/, InstanceId /*instance*/) {}

  /// Phase 2 popped `instance` from `tuple`'s stack entry and rejected
  /// it. Every pushed instance is popped exactly once, so over a run
  /// accepts + rejects == raises (tests/observer_test.cpp).
  virtual void onReject(std::int64_t /*tuple*/, InstanceId /*instance*/,
                        RejectReason /*reason*/) {}

  /// Phase 2 finished after `accepts` admissions and `rejects` rejected
  /// pops.
  virtual void onPhase2Complete(std::int64_t /*accepts*/,
                                std::int64_t /*rejects*/) {}
};

/// Observer that ignores every event; useful as an explicit "no tracing"
/// argument and as a base for tests.
class NullObserver final : public ProtocolObserver {};

}  // namespace treesched
