// Decision provenance ledger: the "why" to the telemetry plane's
// "how much".
//
// A LedgerSink receives per-demand lifecycle events — arrival, shard
// placement, migration, every dual raise that touched the demand,
// admission or rejection (with the blocking dual certificate), purge/
// departure, crash — emitted through the same wiring that carries the
// tracer and the metrics registry (dist/protocol, net/synchronizer,
// online/incremental). The paper's primal-dual structure makes every
// admission decision certifiable: a rejection's certificate names the
// already-admitted instance whose dual LHS blocks the pop, together
// with that LHS and the lambda * profit threshold it clears — replaying
// the run's dual_raise events reproduces the LHS bit-for-bit
// (tests/provenance_test.cpp).
//
// The contract matches the rest of src/obs/: sinks are read-only
// observers — attaching one cannot change a single bit of the
// schedule — and the disabled path (NullLedger, or no ledger at all)
// stays allocation-free on the hot loop. Events are ordered
// deterministically by (epoch, demand, salt, seq), never by thread
// completion: emission happens on the protocol's serial sections only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/demand.hpp"
#include "core/tolerances.hpp"
#include "dist/observer.hpp"

namespace treesched {

class Counter;
class MetricsRegistry;

/// The ledger event vocabulary. The enumerator order is the canonical
/// within-(epoch, demand) salt: a demand arrives before it is placed,
/// placement precedes migration, raises precede the phase-2 verdict,
/// and departure is terminal.
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

/// Stable lowercase name ("arrival", "dual_raise", ...): the JSONL
/// `event` field and the vocabulary tools/ledger_validate.py checks.
const char* ledgerEventKindName(LedgerEventKind kind);

/// Stable lowercase name of a RejectReason ("owner_crashed",
/// "demand_satisfied", "capacity_exceeded").
const char* rejectReasonName(RejectReason reason);

/// One ledger entry. `epoch` and `seq` are stamped by the sink
/// (ProvenanceLedger::beginEpoch sets the epoch; emission sites fill
/// only the fields their kind owns, the rest keep their defaults).
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

/// Receiver interface. Emission sites guard on enabled() and skip all
/// event assembly when it is false, so a disabled sink costs nothing.
class LedgerSink {
 public:
  virtual ~LedgerSink() = default;

  /// False => record() is never called and emission sites skip their
  /// bookkeeping entirely (the allocation-free disabled path).
  virtual bool enabled() const { return true; }

  /// Receives one event. Called only from serial sections, in
  /// deterministic order.
  virtual void record(const LedgerEvent& event) = 0;

  /// Stamps `epoch` on subsequent events (the online solver calls this
  /// at every epoch boundary; one-shot runs stay at epoch 0).
  virtual void beginEpoch(std::int64_t epoch) { (void)epoch; }
};

/// Sink that drops everything; enabled() is false, so attaching it
/// exercises the zero-cost path (tests/provenance_test.cpp gates the
/// allocation delta at exactly zero).
class NullLedger final : public LedgerSink {
 public:
  bool enabled() const override { return false; }
  void record(const LedgerEvent& /*event*/) override {}
};

/// The one certificate book behind the ledger's phase-2 verdicts, used by
/// the distributed one-shot pop and the centralized popStack alike. It
/// mirrors the admissions (each demand's admitted instance, each edge's
/// first loader and load) so a rejection can name its blocker, and holds
/// rejections until the caller knows the lambda they are certified
/// against. Templated on the universe type.
class CertificateBook {
 public:
  /// Sizes the book for the universe's demand and edge id spaces and
  /// forgets every booked verdict.
  template <class U>
  void reset(const U& universe) {
    admittedOf_.assign(static_cast<std::size_t>(universe.numDemands()),
                       kNoInstance);
    firstLoaderOf_.assign(static_cast<std::size_t>(universe.numGlobalEdges()),
                          kNoInstance);
    load_.assign(firstLoaderOf_.size(), 0.0);
    pending_.clear();
  }

  template <class U>
  void admit(const U& universe, InstanceId i) {
    const auto& rec = universe.instance(i);
    admittedOf_[static_cast<std::size_t>(rec.demand)] = i;
    for (const GlobalEdgeId e : universe.path(i)) {
      if (firstLoaderOf_[static_cast<std::size_t>(e)] == kNoInstance) {
        firstLoaderOf_[static_cast<std::size_t>(e)] = i;
      }
      load_[static_cast<std::size_t>(e)] += rec.height;
    }
  }

  /// Why the feasibility oracle refused `i` (it checks the demand before
  /// the capacity).
  template <class U>
  RejectReason refusal(const U& universe, InstanceId i) const {
    const DemandId d = universe.instance(i).demand;
    return admittedOf_[static_cast<std::size_t>(d)] != kNoInstance
               ? RejectReason::DemandSatisfied
               : RejectReason::CapacityExceeded;
  }

  /// Queues the Rejected event for popping `i` at `tuple`, naming its
  /// blocker: the demand's admitted instance, or the first loader of the
  /// first saturated edge on i's path (the booked loads are global, so
  /// they dominate any local view and a blocker always exists). A
  /// crashed owner has none.
  template <class U>
  void reject(const U& universe, InstanceId i, std::int64_t tuple,
              RejectReason reason) {
    const auto& rec = universe.instance(i);
    LedgerEvent ev;
    ev.demand = rec.demand;
    ev.kind = LedgerEventKind::Rejected;
    ev.instance = i;
    ev.tuple = tuple;
    ev.reason = reason;
    if (reason == RejectReason::DemandSatisfied) {
      ev.certInstance = admittedOf_[static_cast<std::size_t>(rec.demand)];
    } else if (reason == RejectReason::CapacityExceeded) {
      for (const GlobalEdgeId e : universe.path(i)) {
        if (load_[static_cast<std::size_t>(e)] + rec.height >
            1.0 + kCapacityTolerance) {
          ev.certInstance = firstLoaderOf_[static_cast<std::size_t>(e)];
          break;
        }
      }
    }
    pending_.push_back(ev);
  }

  /// Records the queued rejections into `sink`, certified against
  /// `lambda`: the blocker's LHS `lhsOf(blocker)` clears lambda * profit
  /// (tests/provenance_test.cpp replays both).
  template <class U, class LhsOf>
  void flush(const U& universe, LhsOf lhsOf, double lambda,
             LedgerSink& sink) {
    for (LedgerEvent& ev : pending_) {
      if (ev.certInstance != kNoInstance) {
        ev.certLhs = lhsOf(ev.certInstance);
        ev.certThreshold = lambda * universe.instance(ev.certInstance).profit;
      }
      sink.record(ev);
    }
    pending_.clear();
  }

 private:
  std::vector<InstanceId> admittedOf_;     ///< per demand
  std::vector<InstanceId> firstLoaderOf_;  ///< per global edge
  std::vector<double> load_;               ///< per global edge
  std::vector<LedgerEvent> pending_;       ///< rejections awaiting lambda
};

/// Thresholds for the ledger's invariant monitors.
struct LedgerMonitorConfig {
  /// Admitted events with latencyEpochs > slaEpochs raise
  /// obs.alert.sla_breach.
  std::int64_t slaEpochs = 4;
  /// A demand's migrationThrash-th migration (and every one after)
  /// raises obs.alert.migration_thrash: the rebalancer is ping-ponging
  /// the demand instead of settling it.
  std::int32_t migrationThrash = 3;
};

/// In-memory ledger. Records every event, stamps (epoch, seq), runs the
/// invariant monitors (publishing obs.alert.* counters into an optional
/// MetricsRegistry), and serializes to JSONL in the canonical
/// (epoch, demand, salt, seq) order — the format tools/explain_demand.py
/// and tools/ledger_validate.py consume.
class ProvenanceLedger final : public LedgerSink {
 public:
  explicit ProvenanceLedger(MetricsRegistry* metrics = nullptr,
                            LedgerMonitorConfig monitors = {});

  void record(const LedgerEvent& event) override;
  void beginEpoch(std::int64_t epoch) override { epoch_ = epoch; }

  /// Events in raw emission (causal) order — the order certificate
  /// replay must process them in.
  const std::vector<LedgerEvent>& events() const { return events_; }
  std::int64_t eventCount() const {
    return static_cast<std::int64_t>(events_.size());
  }

  /// Events stably sorted by (epoch, demand, salt, seq): every demand's
  /// story reads contiguously per epoch, independent of interleaving.
  std::vector<LedgerEvent> canonicalEvents() const;

  /// One JSON object per line, canonical order.
  std::string toJsonl() const;

  /// Writes toJsonl() to `path`. Throws CheckError when the file cannot
  /// be opened.
  void writeJsonl(const std::string& path) const;

  /// Monitor trip counts (also published as obs.alert.* counters when a
  /// registry was attached).
  std::int64_t slaBreaches() const { return slaBreaches_; }
  std::int64_t neverAdmittedDepartures() const {
    return neverAdmittedDepartures_;
  }
  std::int64_t migrationThrashAlerts() const { return thrashAlerts_; }

 private:
  std::vector<LedgerEvent> events_;
  std::int64_t epoch_ = 0;
  std::int64_t nextSeq_ = 0;
  LedgerMonitorConfig monitors_;
  std::vector<std::int32_t> migrationsOfDemand_;
  std::int64_t slaBreaches_ = 0;
  std::int64_t neverAdmittedDepartures_ = 0;
  std::int64_t thrashAlerts_ = 0;
  Counter* alertSla_ = nullptr;
  Counter* alertNeverAdmitted_ = nullptr;
  Counter* alertThrash_ = nullptr;
};

}  // namespace treesched
