// Warm-started incremental epoch re-solver (the online tentpole).
//
// The solver owns a *dynamic* universe (core/dynamic_universe.hpp):
// the pool id space is fixed, but instances, edge paths, per-edge lists
// and layering are materialized only for live demands. Demands arrive and
// depart in epoch batches; each batch triggers an incremental re-solve
// instead of a from-scratch run:
//
//  * Arrival of d extends the universe in O(affected) — addDemand
//    materializes d's instances with their pool-stable ids, layers them
//    and splices them into the live per-edge lists — builds d's
//    processor context (dist/processor_context.hpp), which then persists
//    until d departs, and warm-starts each new instance's dual-constraint
//    LHS from the persistent duals (alpha(d) + the surviving beta along
//    its path). No pool-sized structure is ever built, so per-arrival
//    cost is independent of pool size and steady-state memory tracks
//    live demands.
//  * The communication graph is extended incrementally — arrival of d
//    adds node d plus one edge to each active demand sharing a network
//    with it (however many they share); departure removes d's edges.
//    Never a full rebuild, and the transport (with its warmed-up buffers
//    and cumulative stats) persists across every epoch. The solver speaks
//    only the PlaneTransport contract (net/plane_transport.hpp): the
//    same solver runs over the synchronous bus, the asynchronous lossy
//    wire and the sharded wire (net/live_transport.hpp), and every epoch
//    is bit-identical across them. Each arrival's live instance count is
//    threaded into the transport as its placement weight
//    (PlaneTransport::setDemandWeight) so shard load means instances
//    hosted, not demands hosted.
//  * Departures are *purged exactly*: every surviving dual is the dual
//    of a raise owned by a still-active demand. A departed demand's
//    alpha/beta increments are subtracted and its instances leave the
//    persistent phase-1 stack; tuple sets the purge empties are dropped
//    eagerly (with the dead raise records), so the stack never
//    accumulates fully-purged sets between full re-solves. The demand's
//    universe slab is then garbage-collected (retireDemand) with the
//    same exactness discipline — every symmetric reference removed,
//    checked — and its processor context is freed. Locality makes the
//    purge safe: a purged beta lives on a critical edge of the departed
//    demand, so only demands sharing one of its networks — the affected
//    region by definition — can see their LHS move.
//  * Phase 1 of the distributed protocol then re-runs ONLY over the
//    affected region (active demands whose accessible networks
//    intersect the changed networks), warm-started from the solver's LHS,
//    which it updates in place (dist/protocol.hpp runDistributedPhase1
//    over the dynamic universe — no pool-sized layering is materialized
//    — and the persistent processor contexts, so an epoch builds no
//    context). The
//    protocol's own phase 2 does not run: the epoch's raise log joins the
//    persistent stack instead, so an epoch's rounds and messages are
//    phase 1's alone. Unaffected instances keep their
//    lambda-satisfaction from earlier epochs, so the slackness
//    invariant holds over the whole active set after every epoch.
//  * Admission is the one centralized pop (popStack,
//    framework/two_phase.hpp) over the persistent stack (old surviving
//    sets + the epoch's new sets). Because every surviving raise's
//    instance is popped and every active instance is lambda-satisfied,
//    the paper's approximation argument goes through unchanged: epoch
//    profit >= val(alpha, beta) / bound >= lambda * OPT(active) / bound.
//
// SLA accounting: the solver tracks, per demand, the number of epochs
// from arrival to first admission (admissionSla()); a demand departing
// unadmitted is counted separately, and a re-arrival restarts its clock.
//
// Equivalence gates: when the affected region is the whole active set
// the solver drops the warm state and the epoch is bit-identical to
// runTwoPhaseRestricted on the surviving demand set (tests/online_test);
// for any fixed trace the per-epoch outcomes over the async lossy
// and sharded transports are bit-identical to the synchronous bus
// (tests/online_transport_test); and the dynamic universe the epochs
// run over is bit-identical to the from-scratch build restricted to the
// live set (tests/dynamic_universe_test).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/dynamic_universe.hpp"
#include "core/solution.hpp"
#include "dist/protocol.hpp"
#include "framework/dual_state.hpp"
#include "framework/raise_policy.hpp"
#include "net/plane_transport.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"

namespace treesched {

class EpochSeries;

/// An epoch's protocol options plus the online extras. Every epoch runs
/// phase 1 with these options under its own seed (epochProtocolSeed), so
/// the inherited ExecutionConfig reaches phase 1 as is:
///  * `tracer`/`metrics` also feed the solver's own online.* and
///    universe.* instruments and its epoch/mutate/admit spans;
///  * `observer` sees phase 1's events; admission is the centralized
///    pop, which reports no accept or reject;
///  * `ledger`, when set AND enabled, records the full per-demand
///    lifecycle — arrival, placement (the processor connectDemand
///    reports) and migration (the moves rebalanceShards reports), every
///    dual raise (phase 1's records), admission (first only, with
///    latency) and rejection (from the admission pop, with the blocking
///    dual certificate finalized against the epoch's measured lambda),
///    and departure. Only the dual raises pass through `observer`; the
///    solver hands the rest to the ledger alone;
///  * `crashProcessors` must stay empty: the online path has no fault
///    injection, and the constructor rejects a crash list.
/// All hooks are strictly read-only: attaching any never changes an
/// epoch's outcome, and a disabled ledger keeps the epoch loop
/// allocation-free (tests/telemetry_test.cpp, tests/provenance_test.cpp).
struct OnlineSolverConfig : DistributedOptions {
  /// The online defaults: a looser slackness, 4 Luby rounds per step and
  /// the fixed global schedule at 2 steps per stage (> 0: the online path
  /// always runs the fixed schedule, so epochs are comparable and the
  /// full-region gate can be bit-identical).
  OnlineSolverConfig() {
    epsilon = 0.3;
    misRoundBudget = 4;
    stepsPerStage = 2;
  }

  /// Per-epoch time-series sink (obs/timeseries.hpp): when set, the
  /// solver snapshots `metrics` into one JSONL row at the end of every
  /// applyEpoch call. Read-only.
  EpochSeries* series = nullptr;
  /// Epoch-boundary hot-shard rebalancing (net/plane_transport.hpp). When
  /// enabled, every epoch starts with a PlaneTransport::rebalanceShards
  /// call (seed re-keyed per epoch); transports without a live sharded
  /// placement no-op. Placement is wire accounting — enabling this never
  /// changes any epoch's schedule (tests/rebalance_test.cpp gates it).
  ShardRebalanceConfig rebalance;
};

/// Everything one epoch reports. `solution` is the admitted set over the
/// current active demands (acceptance order).
struct EpochOutcome {
  std::int32_t epoch = 0;
  std::uint64_t protocolSeed = 0;  ///< seed of this epoch's protocol run
  std::int32_t arrivals = 0;
  std::int32_t departures = 0;
  std::int32_t activeDemands = 0;
  std::int64_t activeInstances = 0;
  std::int32_t affectedDemands = 0;
  std::int64_t affectedInstances = 0;
  /// |affected instances| / |active instances| — the work the epoch
  /// re-solved relative to a from-scratch run (1 on a full re-solve,
  /// 0 on a no-churn epoch).
  double resolveFraction = 0;
  /// True when the affected region covered every active demand: the warm
  /// state was dropped and the epoch equals the from-scratch solve bit
  /// for bit.
  bool fullResolve = false;
  Solution solution;  ///< acceptance order (phase-2 pop order)
  double profit = 0;
  double dualObjective = 0;
  double dualUpperBound = 0;
  double lambdaMeasured = 0;
  std::int64_t raises = 0;
  /// Protocol rounds and delivered messages of this epoch's phase-1 run.
  /// Admission is the centralized pop and costs none.
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  /// Active demands first admitted by this epoch (their SLA clocks
  /// stop here).
  std::int32_t newlyAdmittedDemands = 0;
  // ---- Hot-shard rebalancing + engine scaling accounting ----
  // Per-processor live-load variance around this epoch's rebalance step
  // (both zero when rebalancing is disabled or the transport has no live
  // sharded placement), plus the parallel engine's shard-claim tallies.
  // All four are performance accounting only — equivalence gates compare
  // the schedule fields above, never these.
  double loadVarianceBefore = 0;
  double loadVarianceAfter = 0;
  std::int32_t demandsMigrated = 0;
  std::int64_t engineClaims = 0;  ///< shards executed
  std::int64_t engineSteals = 0;  ///< run outside a thread's even share
};

/// Per-epoch protocol seed — the one derivation every online engine
/// shares (the incremental solver and the policy registry's scheduler
/// epoch loop, policy/online_policy.hpp), so their epoch runs are
/// seed-comparable for a given solver seed.
std::uint64_t epochProtocolSeed(std::uint64_t solverSeed, std::int32_t epoch);

/// Aggregate per-demand admission-latency statistics (epochs from
/// arrival to first admission). Re-arrivals restart the clock and count
/// as fresh admissions. Scope: demands the solver actually saw — a
/// demand whose arrival and departure were netted away inside one epoch
/// window (online/churn_engine.hpp batchTrace) never reaches the solver
/// and appears in neither counter.
struct AdmissionSla {
  std::int64_t admittedDemands = 0;     ///< admission events observed
  std::int64_t departedUnadmitted = 0;  ///< departures never admitted
  double meanLatencyEpochs = 0;         ///< mean over admission events
  std::int64_t maxLatencyEpochs = 0;
  /// Nearest-rank latency percentiles over the admission events, from
  /// the solver's unit-bucket histogram — exact for latencies below the
  /// bucket ceiling (values at the ceiling saturate to the observed
  /// max). Zero while no admission has happened.
  double p50LatencyEpochs = 0;
  double p99LatencyEpochs = 0;
};

class IncrementalSolver {
 public:
  /// `universe` must start with zero live demands (the solver owns the
  /// live set from here on); `transport` must be a PlaneTransport
  /// (net/live_transport.hpp builds one; CheckError otherwise) exposing
  /// one endpoint per pool demand, all isolated. The references must
  /// outlive the solver.
  IncrementalSolver(DynamicUniverse& universe,
                    const OnlineSolverConfig& config, Transport& transport);

  /// Admits one epoch batch: `arrivals` must be inactive pool demands,
  /// `departures` active ones (both duplicate-free). Returns the epoch
  /// report; the admitted solution is also retained (solution()).
  EpochOutcome applyEpoch(std::span<const DemandId> arrivals,
                          std::span<const DemandId> departures);

  std::int32_t numEpochs() const { return epoch_; }
  std::int32_t activeDemands() const { return u_.numLiveDemands(); }
  /// Active instances, ascending (rebuilt on demand; ids are numbered
  /// demand by demand, so the live demands' ranges join in order).
  std::vector<InstanceId> activeInstanceIds() const;
  const Solution& solution() const { return solution_; }
  double profit() const { return profit_; }
  const Transport& transport() const { return bus_; }
  const DynamicUniverse& universe() const { return u_; }

  // ---- Phase-1 stack accounting (compaction regression surface) ----
  /// Tuple sets currently on the persistent stack; fully-purged sets are
  /// dropped eagerly, so this never exceeds the sets with live members.
  std::int64_t stackSets() const {
    return static_cast<std::int64_t>(stack_.size());
  }
  /// Raise records currently stored. Purged records compact away with
  /// their sets (or once they outnumber the live records — amortized),
  /// so at most half the stored records are ever dead.
  std::int64_t storedRaises() const {
    return static_cast<std::int64_t>(raises_.size());
  }

  /// Demand d's persistent processor context: init-ed while d is live
  /// (with a zero dual view between epochs), empty otherwise.
  const ProcessorContext& processorContext(DemandId d) const {
    return contexts_[static_cast<std::size_t>(d)];
  }

  // ---- SLA accounting ----
  AdmissionSla admissionSla() const;
  /// Epochs from demand `d`'s (latest) arrival to its first admission;
  /// -1 while never admitted since that arrival.
  std::int64_t admissionLatencyEpochs(DemandId d) const {
    const auto admitted = admittedEpoch_[static_cast<std::size_t>(d)];
    if (admitted < 0) return -1;
    return admitted - arrivalEpoch_[static_cast<std::size_t>(d)];
  }

  /// Test audit: max absolute deviation between the persistent LHS of
  /// active instances and a fresh replay of the surviving raise log
  /// (bounds the floating-point residue of departure purges and of the
  /// arrival-time LHS reconstruction from the persistent duals).
  double maxLhsDeviationFromReplay() const;

 private:
  struct RaiseRecord {
    InstanceId instance = kNoInstance;
    RaiseAmounts amounts;
    std::int32_t stackEntry = -1;
    bool live = false;
  };

  void activate(DemandId d);
  void deactivate(DemandId d);
  void purgeRaisesOf(DemandId d);
  void resetDualState();
  void compactStack();
  void recordAdmissions(EpochOutcome& outcome);
  void publishEpochTelemetry();

  DynamicUniverse& u_;  ///< live universe, mutated by the epoch batches
  OnlineSolverConfig cfg_;

  PlaneTransport& bus_;  ///< the live transport, persistent across epochs

  // Incremental communication-graph bookkeeping (the live set itself is
  // the universe's).
  std::vector<std::vector<DemandId>> networkMembers_;  ///< active, sorted

  // Persistent primal-dual state: duals/LHS of the surviving raises, the
  // surviving raise log, and the phase-1 stack across epochs. lhs_ is
  // pool-dense, and each epoch's phase 1 updates it in place; entries of
  // non-live instances are zeroed at retirement and reconstructed from
  // the duals at (re-)arrival.
  DualState dual_;
  std::vector<double> lhs_;
  /// One processor context per pool demand (empty while not live), handed
  /// to every epoch's phase 1.
  std::vector<ProcessorContext> contexts_;
  std::vector<RaiseRecord> raises_;
  std::vector<std::vector<std::int32_t>> raisesOfDemand_;
  std::vector<std::vector<InstanceId>> stack_;
  std::int64_t deadRaises_ = 0;  ///< purged records awaiting compaction

  Solution solution_;
  double profit_ = 0;
  double lambdaMeasured_ = 1.0;
  double dualObjective_ = 0;
  std::int32_t epoch_ = 0;

  // SLA clocks: per demand, epoch of the latest arrival and of the first
  // admission since (-1 while unadmitted), plus the running aggregates.
  std::vector<std::int64_t> arrivalEpoch_;
  std::vector<std::int64_t> admittedEpoch_;
  std::int64_t admittedCount_ = 0;
  std::int64_t departedUnadmitted_ = 0;
  std::int64_t latencySumEpochs_ = 0;
  std::int64_t latencyMaxEpochs_ = 0;
  /// Unit-bucket admission-latency histogram backing the SLA
  /// percentiles (always maintained; integer latencies make the
  /// nearest-rank percentile exact below the bucket ceiling).
  Histogram latencyHist_;

  // Registry instruments (null when cfg_.metrics is unset).
  Counter* epochsCtr_ = nullptr;
  Counter* arrivalsCtr_ = nullptr;
  Counter* departuresCtr_ = nullptr;
  Counter* admittedCtr_ = nullptr;
  Gauge* activeGauge_ = nullptr;
  Histogram* latencyRegHist_ = nullptr;
  // Universe cost instruments (dynamic-universe maintenance telemetry).
  Gauge* instancesLiveGauge_ = nullptr;
  Counter* gcDemandsCtr_ = nullptr;
  Counter* gcInstancesCtr_ = nullptr;
  /// Universe stats at the last publish — the per-epoch deltas feed the
  /// cumulative universe.* counters.
  UniverseStats prevStats_;

  // Scratch (reused per epoch).
  std::vector<std::int32_t> changedNetworks_;
  std::vector<DemandId> affected_;
  std::vector<InstanceId> restricted_;
  std::vector<std::int32_t> newNeighbors_;

  // Decision provenance (enabled ledger only; the book stays empty
  // otherwise): the admission pop's verdicts, rejections held until the
  // epoch's lambda is measured.
  bool ledgerOn_ = false;
  CertificateBook book_;
};

}  // namespace treesched
