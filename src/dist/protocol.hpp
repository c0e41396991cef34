// Distributed implementation of the two-phase framework (paper §5) over
// simulated message passing.
//
// Every processor owns one demand and sees the world only through O(M)
// messages from neighbours sharing a network. Phase 1 follows the *fixed
// global schedule*: every processor walks the same (epoch, stage, step)
// tuples; each step runs B Luby rounds of MIS over the unsatisfied
// instances of the scheduled group (2 communication rounds per Luby round:
// one to announce undecided instances, one to announce joiners) and one
// raise round in which MIS members broadcast their dual increments — 2B+1
// rounds per step. Phase 2 pops the tuples in reverse, one communication
// round each, greedily accepting pushed instances and broadcasting accepts.
//
// A one-shot run (runDistributedOverTransport and friends) executes both
// phases; an online epoch (runDistributedPhase1) stops after phase 1 and
// returns its raise log, because the online solver admits through the
// centralized pop (popStack, framework/two_phase.hpp).
//
// Under the same seed, round budget and steps-per-stage the run is
// bit-identical to the centralized `runTwoPhase` with
// `FrameworkConfig::fixedSchedule` (see two_phase.hpp): priorities are
// seed-keyed hashes, inboxes are consumed in canonical order, and every
// floating-point accumulation happens in the same sequence on both sides.
//
// Beyond the paper's reliable-processor model the simulator injects
// crash-stop faults: listed processors fall silent from a given schedule
// tuple onward (and stay dead through phase 2). Survivors keep exchanging
// messages and must still produce a feasible schedule with consistent
// local dual views.
//
// Execution engine: per-processor state lives in reentrant
// ProcessorContexts (dist/processor_context.hpp) with no hidden shared
// state. A one-shot run builds every processor's context when it starts;
// an online epoch runs on the solver's persistent contexts, built once
// per arrival, and zeroes the dual views it touched after the audit.
// Rounds iterate per-step active sets (only undecided instances /
// processors that received messages) instead of scanning all processors,
// and the independent per-processor decisions of a round run on a fixed
// thread pool (engine/parallel_runner.hpp) when
// DistributedOptions::threads > 1 — with bit-identical results at any
// thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/line_problem.hpp"
#include "core/solution.hpp"
#include "core/tree_problem.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/observer.hpp"
#include "dist/processor_context.hpp"
#include "framework/raise_policy.hpp"
#include "net/transport.hpp"

namespace treesched {

class Tracer;
class MetricsRegistry;
class LedgerSink;

/// How a protocol run executes, apart from what it computes: threads,
/// fault injection and the read-only observation hooks. Declared once:
/// it is SchedulerConfig::distributed (policy/config.hpp) and the base
/// of DistributedOptions (so of OnlineSolverConfig too).
struct ExecutionConfig {
  /// Worker threads for the intra-round parallel sections (MIS decisions,
  /// raise/accept application, context builds, and the segment sorts of
  /// rounds staged out of canonical order). The result is bit-identical
  /// at ANY value — shard merges are by shard id, never by thread
  /// completion order — so 1 (the serial engine) is the reference and
  /// higher values are pure wall-clock (tests/parallel_equivalence_test).
  /// At most ParallelRunner::kMaxThreads (256); more throws CheckError.
  std::int32_t threads = 1;
  /// Crash-stop fault injection: these processors (demand ids) fall silent
  /// at the start of schedule tuple `crashAtTuple` (0-based global step
  /// index) and remain dead for the rest of the run, including phase 2.
  /// A value past the last tuple crashes them at the start of phase 2.
  /// Empty list: no faults.
  std::vector<DemandId> crashProcessors;
  std::int64_t crashAtTuple = 0;
  /// Optional event hooks; nullptr observes nothing.
  ProtocolObserver* observer = nullptr;
  /// Telemetry plane (src/obs/): when set, the engine wraps `observer`
  /// in a TracingObserver feeding trace spans / registry metrics, and
  /// attaches both to the transport and the thread pool. Strictly
  /// read-only observation — attaching either never changes the
  /// schedule (the bit-identity gates run with live sinks attached).
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Decision provenance ledger (obs/ledger.hpp): when set AND enabled,
  /// the TracingObserver also hands it the engine's decision records —
  /// dual raises, phase-2 verdicts (rejections carry the blocking dual
  /// certificate) and crash events. Same read-only contract as the
  /// tracer; a disabled sink costs nothing (tests/provenance_test.cpp
  /// gates both).
  LedgerSink* ledger = nullptr;
};

/// A protocol run: its execution plus the six FrameworkConfig knobs the
/// protocol reads. The protocol always walks the fixed global schedule
/// of the staged plan, so `schedule` and `fixedSchedule` are not knobs
/// here; SchedulerConfig::distributedOptions() builds one from the
/// layered config.
struct DistributedOptions : ExecutionConfig {
  double epsilon = 0.1;  ///< staged plan: lambda target = 1 - eps
  RaiseRule rule = RaiseRule::Unit;
  double hmin = 1.0;       ///< min height, used by the narrow staged plan
  std::uint64_t seed = 1;  ///< drives MIS priorities (deterministic)
  /// Luby rounds per step; <= 0 runs each MIS to completion (maximal).
  std::int32_t misRoundBudget = 0;
  /// Steps per stage; 0 derives c*log(pmax/pmin) exactly like the
  /// centralized engine under fixedSchedule.
  std::int32_t stepsPerStage = 0;
};

/// One phase-1 raise as executed, in raise order. Raises of one schedule
/// tuple share the tuple index and form one stack set (members ascending),
/// so the log IS the phase-1 stack: grouping on `tuple` recovers it, and
/// phase 2 pops it from the back.
struct DualRaiseRecord {
  std::int64_t tuple = 0;
  InstanceId instance = kNoInstance;
  double alphaIncrement = 0;
  double betaIncrement = 0;
};

struct DistributedResult {
  /// Accepted instances, sorted ascending (collection order is by
  /// processor, not meaningful distributively).
  Solution solution;
  double profit = 0;
  double dualObjective = 0;   ///< val(alpha, beta) over all raises
  double dualUpperBound = 0;  ///< val / lambdaMeasured >= p(OPT)
  double lambdaTarget = 0;
  /// Min over surviving instances of lhs / p after phase 1.
  double lambdaMeasured = 0;
  NetworkStats network;  ///< round/message/payload accounting
  /// Schedule size: every run executes exactly this many phase-1 tuples
  /// (and the same number of phase-2 pop rounds).
  std::int64_t scheduledSteps = 0;
  /// Tuples whose group had unsatisfied instances (observed steps).
  std::int64_t activeSteps = 0;
  std::int64_t raises = 0;
  std::int32_t crashedProcessors = 0;
  /// True iff every surviving processor's local alpha/beta/lhs view is
  /// exactly equal to the ground-truth duals of the raises that happened.
  bool localViewsConsistent = false;
  /// Shard-claim traffic from the run's ParallelRunner: shards executed,
  /// and those a thread ran outside its even share of a section
  /// (ParallelRunner::steals). Accounting only — never feeds back into
  /// the schedule.
  std::int64_t engineClaims = 0;
  std::int64_t engineSteals = 0;
};

/// Runs the protocol on a tree problem: builds the instance universe, the
/// ideal tree layering and the communication graph, then simulates both
/// phases over the round-synchronous bus. The problem is validated by the
/// universe builder.
DistributedResult runDistributedUnitTree(
    const TreeProblem& problem, const DistributedOptions& options = {});

/// Runs the protocol on a line problem with the §7 length layering.
DistributedResult runDistributedUnitLine(
    const LineProblem& problem, const DistributedOptions& options = {});

/// Runs both phases over an arbitrary transport (net/transport.hpp). The
/// transport must expose one endpoint per demand of the universe, over
/// the communication graph of the problem. Any transport honouring the
/// Transport delivery contract yields a run bit-identical to the
/// round-synchronous bus — this is the entry point the asynchronous
/// runner (net/runner.hpp) uses.
///
/// `active` restricts phase 1 to those instances (sorted ascending;
/// empty = every instance, the classic full run). With fixedSchedule-
/// compatible options a restricted run is bit-identical to
/// runTwoPhaseRestricted on the same active set.
DistributedResult runDistributedOverTransport(
    const InstanceUniverse& universe, const Layering& layering,
    Transport& transport, const DistributedOptions& options = {},
    std::span<const InstanceId> active = {});

/// What a phase-1-only run reports: its raises and the local-view audit.
/// No pop happens, so there is no solution, profit or slackness; the
/// transport's stats carry the rounds and messages.
struct Phase1Result {
  /// Every raise in execution order — the run's phase-1 stack.
  std::vector<DualRaiseRecord> raiseLog;
  /// The DistributedResult audit, over phase 1's raises.
  bool localViewsConsistent = false;
  std::int64_t engineClaims = 0;
  std::int64_t engineSteals = 0;
};

class DynamicUniverse;

/// Phase 1 alone, warm-started over a DynamicUniverse — the online
/// epoch's protocol run (online/incremental.hpp). The incremental
/// universe carries its own layering (DynamicLayeringView), so no
/// pool-sized Layering is materialized. `active` (the instances the run
/// may raise, ascending) must be non-empty and name live instances only
/// — a dynamic universe has no "every pool instance" enumeration to fall
/// back to. `lhs` is the caller's dual-constraint LHS over the whole pool
/// (by InstanceId; all zeros is a cold start): the run reads it as the
/// warm start, so an instance already lambda-satisfied by earlier raises
/// is never touched again, and applies each raise to it once, in log
/// order, through applyRaiseToLhs (framework/lhs_tracker.hpp). The raise
/// log equals the phase-1 stack of runTwoPhaseRestricted on the live
/// restriction (tests/online_test.cpp).
///
/// `contexts` are the processors' persistent contexts, one per pool
/// demand: init-ed for every live demand, empty otherwise, all with a
/// zero dual view. The run builds none; it applies its raises to them
/// and, after the audit, zeroes the dual views it touched, so they come
/// back in the same state.
Phase1Result runDistributedPhase1(const DynamicUniverse& universe,
                                  Transport& transport,
                                  const DistributedOptions& options,
                                  std::span<const InstanceId> active,
                                  std::span<double> lhs,
                                  std::span<ProcessorContext> contexts);

/// Everything a runner needs before choosing a transport: the validated
/// universe, the layering and the communication graph.
/// Shared by the synchronous and asynchronous entry points so their
/// setups can never diverge.
struct PreparedRun {
  InstanceUniverse universe;
  Layering layering;
  std::vector<std::vector<std::int32_t>> adjacency;
};

PreparedRun prepareUnitTreeRun(const TreeProblem& problem);
PreparedRun prepareUnitLineRun(const LineProblem& problem);

}  // namespace treesched
