#include "obs/ledger.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace treesched {

const char* ledgerEventKindName(LedgerEventKind kind) {
  switch (kind) {
    case LedgerEventKind::Arrival:
      return "arrival";
    case LedgerEventKind::Placement:
      return "placement";
    case LedgerEventKind::Migration:
      return "migration";
    case LedgerEventKind::Crash:
      return "crash";
    case LedgerEventKind::DualRaise:
      return "dual_raise";
    case LedgerEventKind::Rejected:
      return "rejected";
    case LedgerEventKind::Admitted:
      return "admitted";
    case LedgerEventKind::Departure:
      return "departure";
  }
  return "unknown";
}

const char* rejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::OwnerCrashed:
      return "owner_crashed";
    case RejectReason::DemandSatisfied:
      return "demand_satisfied";
    case RejectReason::CapacityExceeded:
      return "capacity_exceeded";
  }
  return "unknown";
}

ProvenanceLedger::ProvenanceLedger(MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    alertSla_ = &metrics->counter("obs.alert.sla_breach");
    alertNeverAdmitted_ =
        &metrics->counter("obs.alert.never_admitted_departure");
    alertThrash_ = &metrics->counter("obs.alert.migration_thrash");
  }
}

void ProvenanceLedger::onEvent(const LedgerEvent& event) {
  LedgerEvent stamped = event;
  stamped.epoch = epoch_;
  stamped.seq = nextSeq_++;
  events_.push_back(stamped);

  // Invariant monitors: the ledger is the one place that sees the whole
  // lifecycle, so the "something is structurally wrong" signals live
  // here rather than in any one layer.
  switch (stamped.kind) {
    case LedgerEventKind::Admitted:
      if (stamped.latencyEpochs > kSlaEpochs) {
        ++slaBreaches_;
        if (alertSla_ != nullptr) alertSla_->add(1);
      }
      break;
    case LedgerEventKind::Departure:
      if (!stamped.admitted) {
        ++neverAdmittedDepartures_;
        if (alertNeverAdmitted_ != nullptr) alertNeverAdmitted_->add(1);
      }
      break;
    case LedgerEventKind::Migration: {
      const auto d = static_cast<std::size_t>(stamped.demand);
      if (migrationsOfDemand_.size() <= d) {
        migrationsOfDemand_.resize(d + 1, 0);
      }
      if (++migrationsOfDemand_[d] >= kMigrationThrash) {
        ++thrashAlerts_;
        if (alertThrash_ != nullptr) alertThrash_->add(1);
      }
      break;
    }
    default:
      break;
  }
}

std::vector<LedgerEvent> ProvenanceLedger::canonicalEvents() const {
  std::vector<LedgerEvent> sorted = events_;
  std::sort(sorted.begin(), sorted.end(),
            [](const LedgerEvent& a, const LedgerEvent& b) {
              if (a.epoch != b.epoch) return a.epoch < b.epoch;
              if (a.demand != b.demand) return a.demand < b.demand;
              const auto sa = static_cast<std::uint8_t>(a.kind);
              const auto sb = static_cast<std::uint8_t>(b.kind);
              if (sa != sb) return sa < sb;
              return a.seq < b.seq;
            });
  return sorted;
}

namespace {

void appendNumber(std::ostringstream& os, double value) {
  os.precision(17);
  os << value;
}

void appendEvent(std::ostringstream& os, const LedgerEvent& e) {
  os << "{\"epoch\": " << e.epoch << ", \"demand\": " << e.demand
     << ", \"event\": \"" << ledgerEventKindName(e.kind)
     << "\", \"seq\": " << e.seq;
  switch (e.kind) {
    case LedgerEventKind::Arrival:
      break;
    case LedgerEventKind::Placement:
      os << ", \"processor\": " << e.toProcessor;
      break;
    case LedgerEventKind::Migration:
      os << ", \"from\": " << e.fromProcessor << ", \"to\": " << e.toProcessor;
      break;
    case LedgerEventKind::Crash:
      os << ", \"tuple\": " << e.tuple;
      break;
    case LedgerEventKind::DualRaise:
      os << ", \"instance\": " << e.instance << ", \"tuple\": " << e.tuple
         << ", \"alpha\": ";
      appendNumber(os, e.alphaIncrement);
      os << ", \"beta\": ";
      appendNumber(os, e.betaIncrement);
      break;
    case LedgerEventKind::Rejected:
      os << ", \"instance\": " << e.instance << ", \"tuple\": " << e.tuple
         << ", \"reason\": \"" << rejectReasonName(e.reason) << "\"";
      if (e.certInstance != kNoInstance) {
        os << ", \"cert_instance\": " << e.certInstance << ", \"cert_lhs\": ";
        appendNumber(os, e.certLhs);
        os << ", \"cert_threshold\": ";
        appendNumber(os, e.certThreshold);
      }
      break;
    case LedgerEventKind::Admitted:
      os << ", \"instance\": " << e.instance << ", \"tuple\": " << e.tuple
         << ", \"latency_epochs\": " << e.latencyEpochs;
      break;
    case LedgerEventKind::Departure:
      os << ", \"admitted\": " << (e.admitted ? "true" : "false");
      break;
  }
  os << "}";
}

}  // namespace

std::string ProvenanceLedger::toJsonl() const {
  std::ostringstream os;
  for (const LedgerEvent& e : canonicalEvents()) {
    appendEvent(os, e);
    os << "\n";
  }
  return os.str();
}

void ProvenanceLedger::writeJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw CheckError("ProvenanceLedger: cannot open " + path);
  out << toJsonl();
}

}  // namespace treesched
