#include "online/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "framework/lhs_tracker.hpp"
#include "framework/two_phase.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace treesched {

namespace {

// Salt separating the per-epoch protocol seeds from every other keyed
// stream in the library.
constexpr std::uint64_t kEpochSeedSalt = 0x0e90c4;

// Salt for the per-epoch rebalance tie-break seeds (distinct stream
// from the protocol seeds above).
constexpr std::uint64_t kRebalanceSeedSalt = 0x5eba1a;

// Unit buckets for the admission-latency histograms: latencies are
// whole epoch counts, so nearest-rank percentiles are exact until a
// latency reaches the ceiling (where the overflow bucket reports the
// observed max).
std::span<const double> latencyBuckets() {
  static const std::vector<double> buckets = Histogram::unitBuckets(128);
  return buckets;
}

}  // namespace

std::uint64_t epochProtocolSeed(std::uint64_t solverSeed, std::int32_t epoch) {
  return keyedHash(solverSeed, kEpochSeedSalt,
                   static_cast<std::uint64_t>(epoch));
}

IncrementalSolver::IncrementalSolver(DynamicUniverse& universe,
                                     const OnlineSolverConfig& config,
                                     Transport& transport)
    : u_(universe),
      cfg_(config),
      bus_(requirePlaneTransport(transport)),
      networkMembers_(static_cast<std::size_t>(universe.numNetworks())),
      dual_(universe),
      lhs_(static_cast<std::size_t>(universe.numInstances()), 0.0),
      contexts_(static_cast<std::size_t>(universe.numDemands())),
      raisesOfDemand_(static_cast<std::size_t>(universe.numDemands())),
      arrivalEpoch_(static_cast<std::size_t>(universe.numDemands()), -1),
      admittedEpoch_(static_cast<std::size_t>(universe.numDemands()), -1),
      latencyHist_(latencyBuckets()) {
  if (cfg_.metrics != nullptr) {
    epochsCtr_ = &cfg_.metrics->counter("online.epochs");
    arrivalsCtr_ = &cfg_.metrics->counter("online.arrivals");
    departuresCtr_ = &cfg_.metrics->counter("online.departures");
    admittedCtr_ = &cfg_.metrics->counter("online.admitted_demands");
    activeGauge_ = &cfg_.metrics->gauge("online.active_demands");
    latencyRegHist_ = &cfg_.metrics->histogram(
        "online.admission_latency_epochs", latencyBuckets());
    instancesLiveGauge_ = &cfg_.metrics->gauge("universe.instances_live");
    gcDemandsCtr_ = &cfg_.metrics->counter("universe.gc_demands");
    gcInstancesCtr_ = &cfg_.metrics->counter("universe.gc_instances");
  }
  prevStats_ = u_.stats();
  // Decision provenance: with an ENABLED ledger the solver records the
  // lifecycle (arrival, placement, migration, admission, rejection,
  // departure) and books every admission verdict (CertificateBook). All
  // of it is guarded so a null or disabled ledger leaves the epoch loop
  // on the exact seed path (the zero-allocation gate in
  // tests/provenance_test.cpp).
  ledgerOn_ = cfg_.ledger != nullptr && cfg_.ledger->enabled();
  checkThat(u_.numDemands() > 0, "online solver needs a demand pool",
            __FILE__, __LINE__);
  checkThat(u_.numLiveDemands() == 0,
            "the dynamic universe starts empty (the solver owns the live set)",
            __FILE__, __LINE__);
  checkThat(cfg_.stepsPerStage > 0,
            "online epochs run the fixed schedule (stepsPerStage > 0)",
            __FILE__, __LINE__);
  checkThat(cfg_.crashProcessors.empty(),
            "online epochs have no crash-stop fault injection", __FILE__,
            __LINE__);
  checkThat(bus_.numProcessors() == u_.numDemands(),
            "transport exposes one endpoint per pool demand", __FILE__,
            __LINE__);
  for (DemandId d = 0; d < u_.numDemands(); ++d) {
    checkThat(bus_.neighbors(d).empty(),
              "pool demands start isolated on the live transport", __FILE__,
              __LINE__);
  }
}

void IncrementalSolver::activate(DemandId d) {
  checkThat(!u_.isLive(d), "arrival of an inactive demand", __FILE__,
            __LINE__);
  u_.addDemand(d);
  // d's processor context lives as long as d does: built here, once.
  contexts_[static_cast<std::size_t>(d)].init(u_, d);
  // Warm-start the new instances' dual-constraint LHS from the
  // persistent duals: alpha(d) (zero unless a purge left residue) plus
  // the surviving beta along each instance's path. The static pool path
  // would have accumulated the same sum raise by raise, so the two
  // differ only in floating-point association order — the replay audit
  // (maxLhsDeviationFromReplay) bounds the residue.
  const auto newInstances = u_.instancesOfDemand(d);
  for (const InstanceId i : newInstances) {
    lhs_[static_cast<std::size_t>(i)] = dualLhs(cfg_.rule, u_, dual_, i);
  }
  // A (re-)arrival restarts the demand's SLA clock.
  arrivalEpoch_[static_cast<std::size_t>(d)] = epoch_;
  admittedEpoch_[static_cast<std::size_t>(d)] = -1;

  // Thread the live instance count into the transport's shard-load
  // accounting before placement, so the least-loaded choice below
  // already sees the weight. Wire accounting only; a demand with an
  // empty instance set still costs its endpoint.
  bus_.setDemandWeight(
      d, std::max<std::int64_t>(
             1, static_cast<std::int64_t>(newInstances.size())));

  // New communication edges: one per active demand sharing at least one
  // network with d.
  newNeighbors_.clear();
  for (const std::int32_t t : u_.access()[static_cast<std::size_t>(d)]) {
    auto& members = networkMembers_[static_cast<std::size_t>(t)];
    newNeighbors_.insert(newNeighbors_.end(), members.begin(), members.end());
    members.insert(std::lower_bound(members.begin(), members.end(), d), d);
  }
  std::sort(newNeighbors_.begin(), newNeighbors_.end());
  newNeighbors_.erase(std::unique(newNeighbors_.begin(), newNeighbors_.end()),
                      newNeighbors_.end());
  const std::int32_t processor = bus_.connectDemand(d, newNeighbors_);
  if (ledgerOn_ && processor >= 0) {
    cfg_.ledger->onEvent({.demand = d,
                          .kind = LedgerEventKind::Placement,
                          .toProcessor = processor});
  }
}

void IncrementalSolver::deactivate(DemandId d) {
  checkThat(u_.isLive(d), "departure of an active demand", __FILE__,
            __LINE__);
  if (admittedEpoch_[static_cast<std::size_t>(d)] < 0) {
    ++departedUnadmitted_;
  }

  for (const std::int32_t t : u_.access()[static_cast<std::size_t>(d)]) {
    auto& members = networkMembers_[static_cast<std::size_t>(t)];
    const auto pos = std::lower_bound(members.begin(), members.end(), d);
    checkThat(pos != members.end() && *pos == d, "departing demand listed",
              __FILE__, __LINE__);
    members.erase(pos);
  }
  bus_.disconnectDemand(d);

  // Zero the departing instances' pool-dense LHS entries (they still
  // hold other demands' beta contributions on shared edges) and
  // garbage-collect the demand's universe slab. A re-arrival
  // reconstructs the LHS from the duals in activate().
  for (const InstanceId i : u_.instancesOfDemand(d)) {
    lhs_[static_cast<std::size_t>(i)] = 0.0;
  }
  u_.retireDemand(d);
  contexts_[static_cast<std::size_t>(d)].clear();
}

void IncrementalSolver::purgeRaisesOf(DemandId d) {
  for (const std::int32_t idx : raisesOfDemand_[static_cast<std::size_t>(d)]) {
    RaiseRecord& record = raises_[static_cast<std::size_t>(idx)];
    if (!record.live) continue;
    record.live = false;
    ++deadRaises_;
    // Negated amounts undo the raise in the order phase 1 applied it.
    const RaiseAmounts& added = record.amounts;
    const RaiseAmounts negated = {-added.alphaIncrement, -added.betaIncrement};
    const auto critical = u_.critical(record.instance);
    applyRaise(dual_, u_, record.instance, critical, negated);
    applyRaiseToLhs(u_, cfg_.rule, record.instance, critical, negated, lhs_);
    auto& set = stack_[static_cast<std::size_t>(record.stackEntry)];
    const auto pos =
        std::lower_bound(set.begin(), set.end(), record.instance);
    checkThat(pos != set.end() && *pos == record.instance,
              "purged raise present in its stack set", __FILE__, __LINE__);
    set.erase(pos);
  }
  raisesOfDemand_[static_cast<std::size_t>(d)].clear();
}

void IncrementalSolver::resetDualState() {
  dual_ = DualState(u_);
  std::fill(lhs_.begin(), lhs_.end(), 0.0);
  raises_.clear();
  for (auto& list : raisesOfDemand_) {
    list.clear();
  }
  stack_.clear();
  deadRaises_ = 0;
}

void IncrementalSolver::compactStack() {
  // Drop fully-purged tuple sets eagerly (they would otherwise linger
  // until the next full re-solve) and compact the dead raise records out
  // with them, remapping the survivors' set indices in one pass. The
  // pass costs O(live raises), so dead records alone only trigger it
  // once they outnumber the live ones (amortized O(1) per purge, the
  // net/shard.cpp tombstone discipline); an emptied set triggers it
  // immediately — that is the eager-drop guarantee.
  std::vector<std::int32_t> setRemap(stack_.size(), -1);
  std::size_t keptSets = 0;
  for (std::size_t s = 0; s < stack_.size(); ++s) {
    if (stack_[s].empty()) continue;
    setRemap[s] = static_cast<std::int32_t>(keptSets);
    if (keptSets != s) {
      stack_[keptSets] = std::move(stack_[s]);
    }
    ++keptSets;
  }
  if (keptSets == stack_.size() &&
      deadRaises_ * 2 <= static_cast<std::int64_t>(raises_.size())) {
    return;
  }
  stack_.resize(keptSets);

  std::vector<std::int32_t> raiseRemap(raises_.size(), -1);
  std::size_t keptRaises = 0;
  for (std::size_t r = 0; r < raises_.size(); ++r) {
    if (!raises_[r].live) continue;
    RaiseRecord record = raises_[r];
    record.stackEntry = setRemap[static_cast<std::size_t>(record.stackEntry)];
    checkThat(record.stackEntry >= 0, "live raise keeps its stack set",
              __FILE__, __LINE__);
    raiseRemap[r] = static_cast<std::int32_t>(keptRaises);
    raises_[keptRaises] = record;
    ++keptRaises;
  }
  raises_.resize(keptRaises);
  deadRaises_ = 0;
  for (auto& list : raisesOfDemand_) {
    for (std::int32_t& idx : list) {
      idx = raiseRemap[static_cast<std::size_t>(idx)];
    }
  }
}

void IncrementalSolver::recordAdmissions(EpochOutcome& outcome) {
  for (const InstanceId i : solution_.instances) {
    const DemandId d = u_.instance(i).demand;
    auto& admitted = admittedEpoch_[static_cast<std::size_t>(d)];
    if (admitted >= 0) continue;
    admitted = epoch_;
    const std::int64_t latency =
        epoch_ - arrivalEpoch_[static_cast<std::size_t>(d)];
    ++admittedCount_;
    latencySumEpochs_ += latency;
    latencyMaxEpochs_ = std::max(latencyMaxEpochs_, latency);
    latencyHist_.record(static_cast<double>(latency));
    if (admittedCtr_ != nullptr) {
      admittedCtr_->add(1);
      latencyRegHist_->record(static_cast<double>(latency));
    }
    if (ledgerOn_) {
      cfg_.ledger->onEvent({.demand = d,
                            .kind = LedgerEventKind::Admitted,
                            .instance = i,
                            .latencyEpochs = latency});
    }
    ++outcome.newlyAdmittedDemands;
  }
}

AdmissionSla IncrementalSolver::admissionSla() const {
  AdmissionSla sla;
  sla.admittedDemands = admittedCount_;
  sla.departedUnadmitted = departedUnadmitted_;
  sla.meanLatencyEpochs =
      admittedCount_ > 0 ? static_cast<double>(latencySumEpochs_) /
                               static_cast<double>(admittedCount_)
                         : 0.0;
  sla.maxLatencyEpochs = latencyMaxEpochs_;
  sla.p50LatencyEpochs = latencyHist_.percentile(0.5);
  sla.p99LatencyEpochs = latencyHist_.percentile(0.99);
  return sla;
}

std::vector<InstanceId> IncrementalSolver::activeInstanceIds() const {
  std::vector<InstanceId> ids;
  ids.reserve(static_cast<std::size_t>(u_.numLiveInstances()));
  for (DemandId d = 0; d < u_.numDemands(); ++d) {
    if (!u_.isLive(d)) continue;
    const auto span = u_.instancesOfDemand(d);
    ids.insert(ids.end(), span.begin(), span.end());
  }
  return ids;
}

void IncrementalSolver::publishEpochTelemetry() {
  // The protocol attaches/detaches transport telemetry around each run,
  // so re-attach before recording the per-epoch shard load (idempotent;
  // a transparent lookup after the first epoch). The load time-series
  // must exist whether or not rebalancing is enabled, hence the explicit
  // record here rather than inside rebalanceShards.
  if (cfg_.tracer != nullptr || cfg_.metrics != nullptr) {
    bus_.attachTelemetry(cfg_.tracer, cfg_.metrics);
    bus_.recordPlacementLoad();
  }
  if (cfg_.metrics == nullptr) return;
  const UniverseStats stats = u_.stats();
  instancesLiveGauge_->set(static_cast<double>(u_.numLiveInstances()));
  gcDemandsCtr_->add(stats.gcDemands - prevStats_.gcDemands);
  gcInstancesCtr_->add(stats.gcInstances - prevStats_.gcInstances);
  prevStats_ = stats;
}

EpochOutcome IncrementalSolver::applyEpoch(
    std::span<const DemandId> arrivals, std::span<const DemandId> departures) {
  EpochOutcome outcome;
  outcome.epoch = epoch_;
  outcome.arrivals = static_cast<std::int32_t>(arrivals.size());
  outcome.departures = static_cast<std::int32_t>(departures.size());
  outcome.protocolSeed = epochProtocolSeed(cfg_.seed, epoch_);

  Tracer* tracer = cfg_.tracer;
  const bool trace = tracer != nullptr && tracer->enabled();
  const std::int64_t epochBegin = trace ? tracer->now() : 0;
  // Epoch stamp first: every event below (including the rebalance
  // block's migrations) belongs to this epoch.
  if (ledgerOn_) cfg_.ledger->beginEpoch(epoch_);
  if (epochsCtr_ != nullptr) {
    epochsCtr_->add(1);
    arrivalsCtr_->add(static_cast<std::int64_t>(arrivals.size()));
    departuresCtr_->add(static_cast<std::int64_t>(departures.size()));
  }

  // Epoch boundary = the one moment the transport is between rounds, so
  // hot-shard rebalancing happens here, before any mutation or protocol
  // traffic. Placement is wire accounting only: everything below is
  // bit-identical with or without this block.
  if (cfg_.rebalance.enabled) {
    // The protocol attaches/detaches transport telemetry around each run;
    // the rebalance step sits before the run, so re-attach here or the
    // rebalance span is never traced. Idempotent, and a transparent
    // lookup after the first epoch (no allocation).
    if (cfg_.tracer != nullptr || cfg_.metrics != nullptr) {
      bus_.attachTelemetry(cfg_.tracer, cfg_.metrics);
    }
    ShardRebalanceConfig rb = cfg_.rebalance;
    rb.seed = keyedHash(cfg_.rebalance.seed, kRebalanceSeedSalt,
                        static_cast<std::uint64_t>(epoch_));
    const RebalanceOutcome moved = bus_.rebalanceShards(rb);
    outcome.loadVarianceBefore = moved.loadVarianceBefore;
    outcome.loadVarianceAfter = moved.loadVarianceAfter;
    outcome.demandsMigrated = static_cast<std::int32_t>(moved.moves.size());
    if (ledgerOn_) {
      for (const ShardPlacement::Migration& move : moved.moves) {
        cfg_.ledger->onEvent({.demand = move.demand,
                              .kind = LedgerEventKind::Migration,
                              .fromProcessor = move.from,
                              .toProcessor = move.to});
      }
    }
  }

  // Zero-churn epoch: nothing changed, so the previous epoch's
  // admission, duals and slackness carry over verbatim — no stack
  // re-pop, no lambda scan, no protocol run.
  if (arrivals.empty() && departures.empty()) {
    outcome.activeDemands = u_.numLiveDemands();
    outcome.activeInstances = u_.numLiveInstances();
    outcome.solution = solution_;
    outcome.profit = profit_;
    outcome.lambdaMeasured = lambdaMeasured_;
    outcome.dualObjective = dualObjective_;
    outcome.dualUpperBound = weakDualityBound(dualObjective_, lambdaMeasured_);
    if (activeGauge_ != nullptr) {
      activeGauge_->set(static_cast<double>(u_.numLiveDemands()));
    }
    publishEpochTelemetry();
    if (trace) {
      tracer->span("online_epoch", "online", 0, epochBegin,
                   {{"epoch", outcome.epoch}});
    }
    if (cfg_.series != nullptr) cfg_.series->snapshot(outcome.epoch);
    ++epoch_;
    return outcome;
  }

  // Networks whose demand population changes this epoch — the changed
  // set that defines the affected region.
  const auto& access = u_.access();
  changedNetworks_.clear();
  for (const DemandId d : departures) {
    checkIndex(d, u_.numDemands(), "departing demand");
    const auto& nets = access[static_cast<std::size_t>(d)];
    changedNetworks_.insert(changedNetworks_.end(), nets.begin(), nets.end());
  }
  for (const DemandId d : arrivals) {
    checkIndex(d, u_.numDemands(), "arriving demand");
    const auto& nets = access[static_cast<std::size_t>(d)];
    changedNetworks_.insert(changedNetworks_.end(), nets.begin(), nets.end());
  }
  std::sort(changedNetworks_.begin(), changedNetworks_.end());
  changedNetworks_.erase(
      std::unique(changedNetworks_.begin(), changedNetworks_.end()),
      changedNetworks_.end());

  // Departures first (their raises purge exactly, their slabs
  // garbage-collect; fully-purged stack sets compact away eagerly), then
  // arrivals extend the universe and the live communication graph.
  const std::int64_t mutateBegin = trace ? tracer->now() : 0;
  for (const DemandId d : departures) {
    if (ledgerOn_) {
      // Emitted before the purge so the raw-order certificate replay
      // subtracts the demand's raises exactly where the solver does.
      const bool admitted = admittedEpoch_[static_cast<std::size_t>(d)] >= 0;
      cfg_.ledger->onEvent({.demand = d,
                            .kind = LedgerEventKind::Departure,
                            .admitted = admitted});
    }
    purgeRaisesOf(d);
    deactivate(d);
  }
  if (!departures.empty()) {
    compactStack();
  }
  for (const DemandId d : arrivals) {
    if (ledgerOn_) {
      cfg_.ledger->onEvent({.demand = d, .kind = LedgerEventKind::Arrival});
    }
    activate(d);
  }
  if (trace) {
    tracer->span("mutate", "online", 0, mutateBegin,
                 {{"epoch", outcome.epoch},
                  {"arrivals", outcome.arrivals},
                  {"departures", outcome.departures}});
  }

  // Affected region: active demands on a changed network.
  affected_.clear();
  for (const std::int32_t t : changedNetworks_) {
    const auto& members = networkMembers_[static_cast<std::size_t>(t)];
    affected_.insert(affected_.end(), members.begin(), members.end());
  }
  std::sort(affected_.begin(), affected_.end());
  affected_.erase(std::unique(affected_.begin(), affected_.end()),
                  affected_.end());

  outcome.activeDemands = u_.numLiveDemands();
  outcome.activeInstances = u_.numLiveInstances();
  outcome.affectedDemands = static_cast<std::int32_t>(affected_.size());
  outcome.fullResolve =
      outcome.activeDemands > 0 &&
      static_cast<std::int32_t>(affected_.size()) == outcome.activeDemands;

  if (outcome.fullResolve) {
    // The whole instance is affected: drop the warm state and solve from
    // scratch — this is the epoch the equivalence gate compares bit for
    // bit against runTwoPhaseRestricted on the active set.
    resetDualState();
  }
  // Instance ids are numbered demand by demand, so the id ranges of
  // ascending demands join into an ascending list.
  restricted_.clear();
  for (const DemandId d : affected_) {
    const auto span = u_.instancesOfDemand(d);
    restricted_.insert(restricted_.end(), span.begin(), span.end());
  }
  outcome.affectedInstances = static_cast<std::int64_t>(restricted_.size());
  outcome.resolveFraction =
      outcome.activeInstances > 0
          ? static_cast<double>(restricted_.size()) /
                static_cast<double>(outcome.activeInstances)
          : 0.0;

  if (!restricted_.empty()) {
    DistributedOptions options = cfg_;
    options.seed = outcome.protocolSeed;

    // Phase 1 warm-starts from lhs_ (zeroed by resetDualState on a full
    // re-solve) and applies its raises to it in place.
    const std::int64_t roundsBefore = bus_.stats().rounds;
    const std::int64_t messagesBefore = bus_.stats().messages;
    const Phase1Result run =
        runDistributedPhase1(u_, bus_, options, restricted_, lhs_, contexts_);
    checkThat(run.localViewsConsistent,
              "epoch phase-1 local dual views match the ground truth",
              __FILE__, __LINE__);
    outcome.raises = static_cast<std::int64_t>(run.raiseLog.size());
    outcome.rounds = bus_.stats().rounds - roundsBefore;
    outcome.messages = bus_.stats().messages - messagesBefore;
    outcome.engineClaims = run.engineClaims;
    outcome.engineSteals = run.engineSteals;

    // Record the epoch's raises in the persistent duals and raise log,
    // and append its stack sets (one per schedule tuple that raised).
    std::int64_t lastTuple = -1;
    for (const DualRaiseRecord& entry : run.raiseLog) {
      if (entry.tuple != lastTuple) {
        stack_.emplace_back();
        lastTuple = entry.tuple;
      }
      RaiseRecord record;
      record.instance = entry.instance;
      record.amounts = {entry.alphaIncrement, entry.betaIncrement};
      record.stackEntry = static_cast<std::int32_t>(stack_.size()) - 1;
      record.live = true;
      stack_.back().push_back(entry.instance);
      raisesOfDemand_[static_cast<std::size_t>(
                          u_.instance(entry.instance).demand)]
          .push_back(static_cast<std::int32_t>(raises_.size()));
      raises_.push_back(record);
      applyRaise(dual_, u_, entry.instance, u_.critical(entry.instance),
                 record.amounts);
    }
  }

  // Admission: phase 2 over the merged persistent stack (old surviving
  // sets + this epoch's), newest set first. Every member is owned by an
  // active demand (departed demands' raises were purged). Rejections
  // wait in the book until this epoch's lambda is measured below.
  const std::int64_t admitBegin = trace ? tracer->now() : 0;
  const BasicFeasibilityOracle<DynamicUniverse> admitted =
      popStack(u_, stack_, ledgerOn_ ? &book_ : nullptr);
  solution_ = admitted.solution();
  profit_ = admitted.profit();
  outcome.solution = solution_;
  outcome.profit = profit_;
  recordAdmissions(outcome);
  if (trace) {
    tracer->span("admit", "online", 0, admitBegin,
                 {{"epoch", outcome.epoch},
                  {"accepted", static_cast<std::int64_t>(
                       solution_.instances.size())},
                  {"newly_admitted", outcome.newlyAdmittedDemands}});
  }

  // Slackness over the whole active set (warm epochs inherit the old
  // epochs' satisfaction; the dual pair scaled by lambda is feasible for
  // the active universe, so objective / lambda upper-bounds OPT).
  double lambda = std::numeric_limits<double>::infinity();
  bool any = false;
  for (DemandId d = 0; d < u_.numDemands(); ++d) {
    if (!u_.isLive(d)) continue;
    for (const InstanceId i : u_.instancesOfDemand(d)) {
      any = true;
      lambda = std::min(lambda, lhs_[static_cast<std::size_t>(i)] /
                                    u_.instance(i).profit);
    }
  }
  lambdaMeasured_ = any ? lambda : 1.0;
  dualObjective_ = dual_.objective();
  // Certificates finalize against THIS epoch's measured lambda.
  if (ledgerOn_) {
    book_.flush(
        u_, [&](InstanceId k) { return lhs_[static_cast<std::size_t>(k)]; },
        lambdaMeasured_, *cfg_.ledger);
  }
  outcome.lambdaMeasured = lambdaMeasured_;
  outcome.dualObjective = dualObjective_;
  outcome.dualUpperBound =
      weakDualityBound(outcome.dualObjective, outcome.lambdaMeasured);

  if (activeGauge_ != nullptr) {
    activeGauge_->set(static_cast<double>(u_.numLiveDemands()));
  }
  publishEpochTelemetry();
  if (trace) {
    tracer->span("online_epoch", "online", 0, epochBegin,
                 {{"epoch", outcome.epoch},
                  {"affected_instances", outcome.affectedInstances},
                  {"full_resolve", outcome.fullResolve ? 1 : 0}});
  }
  if (cfg_.series != nullptr) cfg_.series->snapshot(outcome.epoch);
  ++epoch_;
  return outcome;
}

double IncrementalSolver::maxLhsDeviationFromReplay() const {
  std::vector<double> replay(lhs_.size(), 0.0);
  for (const RaiseRecord& record : raises_) {
    if (!record.live) continue;
    applyRaiseToLhs(u_, cfg_.rule, record.instance,
                    u_.critical(record.instance), record.amounts, replay);
  }
  double deviation = 0;
  for (DemandId d = 0; d < u_.numDemands(); ++d) {
    if (!u_.isLive(d)) continue;
    for (const InstanceId i : u_.instancesOfDemand(d)) {
      deviation = std::max(
          deviation, std::abs(replay[static_cast<std::size_t>(i)] -
                              lhs_[static_cast<std::size_t>(i)]));
    }
  }
  return deviation;
}

}  // namespace treesched
