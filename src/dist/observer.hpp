// Observation hooks into the distributed protocol.
//
// The protocol reports the events a distributed tracing facility would see:
// epoch/stage boundaries, step starts (with participant counts), completed
// MIS computations, and its decisions — dual raises, crash-stop faults
// taking effect, and phase-2 pops, accepts AND rejects, so over a full run
// every raise is accounted for exactly once (accepts + rejects == raises);
// a phase-1-only run (the online epoch) reports no pops. Each decision is
// one LedgerEvent, the record the provenance ledger (obs/ledger.hpp)
// keeps, built once and handed to onEvent once. Tests use the hooks to
// cross-check the run-level counters; the examples use them for progress
// traces; obs/observer_adapter.hpp turns them into tracer spans, registry
// metrics and ledger entries. Silent steps (no unsatisfied instance in the
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

/// The decision vocabulary, shared by the protocol and the ledger. The
/// enumerator order is the ledger's canonical within-(epoch, demand)
/// salt: a demand arrives before it is placed, placement precedes
/// migration, raises precede the phase-2 verdict, and departure is
/// terminal.
enum class LedgerEventKind : std::uint8_t {
  Arrival,    ///< demand entered the live pool this epoch
  Placement,  ///< live sharding placed the demand on a processor
  Migration,  ///< epoch-boundary rebalancing moved the demand
  Crash,      ///< crash-stop fault took the owning processor
  DualRaise,  ///< phase 1 made one of the demand's instances tight
  Rejected,   ///< phase 2 popped an instance and rejected it
  Admitted,   ///< phase 2 (or online re-admission) admitted an instance
  Departure,  ///< demand left the pool; its raises were purged
};

/// One decision record. `epoch` and `seq` are stamped by the ledger
/// (ProvenanceLedger::beginEpoch sets the epoch); an emission site fills
/// only the fields its kind owns, the rest keep their defaults.
struct LedgerEvent {
  std::int64_t epoch = 0;
  std::int64_t seq = 0;  ///< emission order; ties within (epoch, demand, salt)
  DemandId demand = -1;
  LedgerEventKind kind = LedgerEventKind::Arrival;
  InstanceId instance = kNoInstance;  ///< DualRaise / Rejected / Admitted
  std::int64_t tuple = -1;            ///< schedule tuple (one-shot protocol)
  double alphaIncrement = 0;          ///< DualRaise
  double betaIncrement = 0;           ///< DualRaise
  RejectReason reason = RejectReason::OwnerCrashed;  ///< Rejected
  /// Rejected: the admitted instance whose load blocks this pop
  /// (kNoInstance when the owner crashed — there is no blocker).
  InstanceId certInstance = kNoInstance;
  double certLhs = 0;        ///< blocker's dual LHS at rejection time
  double certThreshold = 0;  ///< lambdaMeasured * profit(certInstance)
  std::int32_t fromProcessor = -1;  ///< Migration
  std::int32_t toProcessor = -1;    ///< Placement / Migration
  std::int64_t latencyEpochs = -1;  ///< Admitted (online; -1 one-shot)
  bool admitted = false;            ///< Departure: had been admitted
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

  /// One decision of the run:
  ///  * Crash: crash-stop fault injection took effect for processor
  ///    `demand` at `tuple` (phase-2-only crashes report the first
  ///    phase-2 pop tuple, i.e. the schedule size); once per crashed
  ///    processor, ascending;
  ///  * DualRaise: `instance`'s dual constraint was made tight at
  ///    `tuple` (alphaIncrement > 0);
  ///  * Admitted / Rejected: phase 2 popped `instance` from `tuple`'s
  ///    stack entry and accepted it, or rejected it for `reason`. Every
  ///    pushed instance is popped exactly once, so over a run accepts +
  ///    rejects == raises (tests/observer_test.cpp). A rejection names
  ///    its blocking certificate only when an enabled ledger is set.
  /// The online solver's lifecycle records (arrival, placement,
  /// migration, re-admission, departure) go to its ledger only.
  virtual void onEvent(const LedgerEvent& /*event*/) {}

  /// Phase 1 finished: `activeSteps` observed steps, `raises` raises.
  virtual void onPhase1Complete(std::int64_t /*activeSteps*/,
                                std::int64_t /*raises*/) {}

  /// Phase 2 finished after `accepts` admissions and `rejects` rejected
  /// pops.
  virtual void onPhase2Complete(std::int64_t /*accepts*/,
                                std::int64_t /*rejects*/) {}
};

/// Observer that ignores every event; useful as an explicit "no tracing"
/// argument and as a base for tests.
class NullObserver final : public ProtocolObserver {};

}  // namespace treesched
