// Decision provenance ledger: the "why" to the telemetry plane's
// "how much".
//
// A LedgerSink is a ProtocolObserver (dist/observer.hpp) that receives
// per-demand lifecycle records through onEvent — arrival, shard
// placement, migration, every dual raise that touched the demand,
// admission or rejection (with the blocking dual certificate), purge/
// departure, crash. The protocol's decisions reach it through the same
// adapter that feeds the tracer and the metrics registry
// (obs/observer_adapter.hpp); the online solver (online/incremental)
// records the rest. The paper's primal-dual structure makes every
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

/// Stable lowercase name ("arrival", "dual_raise", ...): the JSONL
/// `event` field and the vocabulary tools/ledger_validate.py checks.
const char* ledgerEventKindName(LedgerEventKind kind);

/// Stable lowercase name of a RejectReason ("owner_crashed",
/// "demand_satisfied", "capacity_exceeded").
const char* rejectReasonName(RejectReason reason);

/// Receiver interface: a ProtocolObserver whose onEvent takes every
/// record.
class LedgerSink : public ProtocolObserver {
 public:
  /// False => onEvent() is never called: the adapter and the online
  /// solver drop the sink and skip the bookkeeping only a ledger needs
  /// (the certificate book), the allocation-free disabled path.
  virtual bool enabled() const { return true; }

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
};

/// The one certificate book behind the ledger's phase-2 verdicts, used by
/// the distributed one-shot pop and the centralized popStack alike. It
/// mirrors the admissions (each demand's admitted instance, each edge's
/// first loader and load) so a rejection can name its blocker, builds the
/// Rejected record and certifies it against lambda: at once when lambda
/// is known, or once the caller has measured it. Templated on the
/// universe type.
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

  /// The Rejected record for popping `i` at `tuple`, naming its blocker:
  /// the demand's admitted instance, or the first loader of the first
  /// saturated edge on i's path (the booked loads are global, so they
  /// dominate any local view and a blocker always exists). A crashed
  /// owner has no blocker, and neither has a book that was never reset.
  template <class U>
  LedgerEvent rejection(const U& universe, InstanceId i, std::int64_t tuple,
                        RejectReason reason) const {
    const auto& rec = universe.instance(i);
    LedgerEvent ev{.demand = rec.demand,
                   .kind = LedgerEventKind::Rejected,
                   .instance = i,
                   .tuple = tuple,
                   .reason = reason};
    if (admittedOf_.empty()) return ev;
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
    return ev;
  }

  /// Certifies a rejection against `lambda`: its blocker's LHS
  /// `lhsOf(blocker)` clears lambda * profit (tests/provenance_test.cpp
  /// replays both).
  template <class U, class LhsOf>
  static void certify(const U& universe, LhsOf lhsOf, double lambda,
                      LedgerEvent& ev) {
    if (ev.certInstance == kNoInstance) return;
    ev.certLhs = lhsOf(ev.certInstance);
    ev.certThreshold = lambda * universe.instance(ev.certInstance).profit;
  }

  /// Queues the rejection of `i` at `tuple`, its blocker named now, until
  /// the caller knows the lambda it is certified against.
  template <class U>
  void reject(const U& universe, InstanceId i, std::int64_t tuple,
              RejectReason reason) {
    pending_.push_back(rejection(universe, i, tuple, reason));
  }

  /// Certifies the queued rejections against `lambda` and hands them to
  /// `sink` in pop order.
  template <class U, class LhsOf>
  void flush(const U& universe, LhsOf lhsOf, double lambda,
             ProtocolObserver& sink) {
    for (LedgerEvent& ev : pending_) {
      certify(universe, lhsOf, lambda, ev);
      sink.onEvent(ev);
    }
    pending_.clear();
  }

 private:
  std::vector<InstanceId> admittedOf_;     ///< per demand
  std::vector<InstanceId> firstLoaderOf_;  ///< per global edge
  std::vector<double> load_;               ///< per global edge
  std::vector<LedgerEvent> pending_;       ///< rejections awaiting lambda
};

/// In-memory ledger. Records every event, stamps (epoch, seq), runs the
/// invariant monitors (publishing obs.alert.* counters into an optional
/// MetricsRegistry), and serializes to JSONL in the canonical
/// (epoch, demand, salt, seq) order — the format tools/explain_demand.py
/// and tools/ledger_validate.py consume.
class ProvenanceLedger final : public LedgerSink {
 public:
  /// Admitted events with latencyEpochs > kSlaEpochs raise
  /// obs.alert.sla_breach.
  static constexpr std::int64_t kSlaEpochs = 4;
  /// A demand's kMigrationThrash-th migration (and every one after)
  /// raises obs.alert.migration_thrash: the rebalancer is ping-ponging
  /// the demand instead of settling it.
  static constexpr std::int32_t kMigrationThrash = 3;

  explicit ProvenanceLedger(MetricsRegistry* metrics = nullptr);

  void onEvent(const LedgerEvent& event) override;
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
  std::vector<std::int32_t> migrationsOfDemand_;
  std::int64_t slaBreaches_ = 0;
  std::int64_t neverAdmittedDepartures_ = 0;
  std::int64_t thrashAlerts_ = 0;
  Counter* alertSla_ = nullptr;
  Counter* alertNeverAdmitted_ = nullptr;
  Counter* alertThrash_ = nullptr;
};

}  // namespace treesched
