// ProtocolObserver → telemetry-plane adapter.
//
// TracingObserver is how the protocol's event hooks feed the tracer, the
// metrics registry and the provenance ledger: the engine wraps the
// caller's observer in one of these whenever DistributedOptions carries a
// tracer, a registry or an enabled ledger, so the observer remains the
// single event mechanism — tracing and provenance are adapters over it,
// not parallel instrumentation paths. Each decision record feeds all
// three, then the caller's observer.
//
// Span structure (all on tid 0, nested by construction):
//   phase1 ⊃ epoch ⊃ stage ⊃ step ⊃ mis, then phase2 (which also
//   covers the inter-phase slackness/consistency audit), with raise /
//   accept / reject / crash instants. A span closes when the next
//   same-or-higher-level boundary event arrives, so silent steps (which
//   emit no events) are attributed to the enclosing stage.
//
// Metrics: protocol.{epochs,stages,active_steps,raises,accepts,rejects,
// crash_events} counters plus protocol.{step_participants,mis_size,
// luby_rounds} histograms. Rejections additionally split per reason
// into protocol.rejects.{owner_crashed,demand_satisfied,
// capacity_exceeded} (the aggregate stays — the per-reason counters
// always sum to it, cross-checked in tests/observer_test.cpp).
// Instruments are resolved once, at construction; per-event work is
// branch + add/record — no allocation (the NullSink zero-allocation
// regression covers this path).
#pragma once

#include <array>
#include <cstdint>

#include "dist/observer.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesched {

class TracingObserver final : public ProtocolObserver {
 public:
  /// Any argument may be null, and a disabled ledger counts as null;
  /// `next` (the caller's observer) still sees every event. With all four
  /// null the adapter is inactive and the engine bypasses it entirely.
  TracingObserver(Tracer* tracer, MetricsRegistry* metrics, LedgerSink* ledger,
                  ProtocolObserver* next);

  /// True when the adapter has a live tracer, a registry or an enabled
  /// ledger to feed.
  bool active() const {
    return trace_ || epochs_ != nullptr || ledger_ != nullptr;
  }

  void onEpochBegin(std::int32_t epoch, std::int32_t groupMembers) override;
  void onStageBegin(std::int32_t epoch, std::int32_t stage,
                    double target) override;
  void onStepStart(std::int32_t epoch, std::int32_t stage, std::int32_t step,
                   std::int32_t participants) override;
  void onMisComplete(std::int64_t tuple, std::int32_t lubyRounds,
                     std::int32_t misSize) override;
  void onEvent(const LedgerEvent& event) override;
  void onPhase1Complete(std::int64_t activeSteps, std::int64_t raises) override;
  void onPhase2Complete(std::int64_t accepts, std::int64_t rejects) override;

 private:
  void closeStep();
  void closeStage();
  void closeEpoch();

  Tracer* tracer_ = nullptr;
  bool trace_ = false;        ///< tracer present and enabled
  LedgerSink* ledger_ = nullptr;  ///< null unless enabled
  ProtocolObserver* next_ = nullptr;

  // Registry instruments (null when no registry attached).
  Counter* epochs_ = nullptr;
  Counter* stages_ = nullptr;
  Counter* steps_ = nullptr;
  Counter* raises_ = nullptr;
  Counter* accepts_ = nullptr;
  Counter* rejects_ = nullptr;
  /// Per-reason rejection counters, indexed by RejectReason.
  std::array<Counter*, 3> rejectsByReason_ = {nullptr, nullptr, nullptr};
  Counter* crashes_ = nullptr;
  Histogram* participants_ = nullptr;
  Histogram* misSize_ = nullptr;
  Histogram* lubyRounds_ = nullptr;

  // Open-span state (ticks; -1 = no span open).
  std::int64_t phase1Begin_ = -1;
  std::int64_t epochBegin_ = -1;
  std::int64_t stageBegin_ = -1;
  std::int64_t stepBegin_ = -1;
  std::int64_t phase2Begin_ = -1;
  std::int64_t curEpoch_ = -1;
  std::int64_t curStage_ = -1;
  std::int64_t curStep_ = -1;
};

}  // namespace treesched
