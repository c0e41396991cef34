// Unified layered scheduler configuration (the registry's one config).
//
// Before the policy registry, three overlapping config structs grew up
// around the same knobs: FrameworkConfig (a.k.a. the two-phase config,
// framework/two_phase.hpp), SolverOptions (algo/tree_solvers.hpp) and
// DistributedOptions (dist/protocol.hpp). Each carried a subset of
// {epsilon, raise rule, schedule policy, decomposition, hmin, seed, MIS
// budget, fixed schedule, steps per stage} plus layer-specific extras,
// and every bench/test picked one and copied fields across by hand.
//
// SchedulerConfig is the superset, split into the layers the knobs
// belong to:
//   * core        — the algorithmic knobs every engine shares;
//   * distributed — execution-engine extras (threads, crash injection,
//                   observer, telemetry, ledger);
//   * online      — churn-engine extras (epoch length, live transport).
// The legacy structs remain as thin per-layer views so existing call
// sites compile unchanged; new code (the registry, bench_tournament,
// policy tests, the demos) builds one SchedulerConfig and converts at
// the boundary with the projection/lifting helpers below. Exactly one
// field-by-field mapping exists per legacy struct — here, not at call
// sites.
#pragma once

#include <cstdint>

#include "algo/tree_solvers.hpp"
#include "dist/protocol.hpp"
#include "framework/two_phase.hpp"
#include "net/live_transport.hpp"
#include "online/incremental.hpp"

namespace treesched {

/// Algorithmic knobs shared by the centralized engine, the distributed
/// protocol and the online re-solver. Defaults match FrameworkConfig
/// except `fixedSchedule`: the registry always runs the fixed global
/// schedule (like the online path) so every scheduler id is comparable
/// across engines and bit-identity gates can hold.
struct SchedulerCoreConfig {
  double epsilon = 0.1;  ///< staged: lambda = 1-eps; threshold: 1/(5+eps)
  RaiseRule rule = RaiseRule::Unit;
  SchedulePolicy schedule = SchedulePolicy::Staged;
  /// Tree decomposition behind the layering (trees only; consumed by the
  /// SolverOptions projection).
  DecompositionKind decomposition = DecompositionKind::Ideal;
  double hmin = 1.0;       ///< min height, used by the narrow staged plan
  std::uint64_t seed = 1;  ///< drives MIS priorities (deterministic)
  std::int32_t misRoundBudget = 0;  ///< <= 0: run Luby to completion
  bool fixedSchedule = true;        ///< the registry's schedule contract
  std::int32_t stepsPerStage = 0;   ///< 0 = derive from pmax/pmin
  std::int32_t stepCap = 100000;    ///< safety valve (FrameworkConfig)
};

/// Execution-engine extras of the distributed protocol.
struct SchedulerDistributedConfig {
  /// Worker threads for the intra-round parallel sections; bit-identical
  /// results at any value (the engine guarantee).
  std::int32_t threads = 1;
  /// Crash-stop fault injection (dist/protocol.hpp semantics).
  std::vector<DemandId> crashProcessors;
  std::int64_t crashAtTuple = 0;
  ProtocolObserver* observer = nullptr;
  /// Telemetry plane (src/obs/): one registry + tracer per run, shared
  /// by every layer the config reaches (protocol, transport, thread
  /// pool, online solver). Strictly read-only observation.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Decision provenance ledger (obs/ledger.hpp): per-demand lifecycle
  /// events with dual certificates. Read-only like the rest of the
  /// telemetry plane; null (or a NullLedger) keeps the hot loop on the
  /// allocation-free path.
  LedgerSink* ledger = nullptr;
};

/// Churn-engine extras of the online epoch loop.
struct SchedulerOnlineConfig {
  double epochLength = 8.0;       ///< virtual time per epoch batch
  LiveTransportConfig transport;  ///< wire the epochs run over
  /// Epoch-boundary hot-shard rebalancing (sharded transports only;
  /// wire accounting, never the schedule).
  ShardRebalanceConfig rebalance;
  /// Per-epoch MetricsRegistry snapshots (obs/timeseries.hpp); the
  /// online solver calls snapshot() at every epoch boundary.
  EpochSeries* series = nullptr;
};

/// The one layered config the policy registry consumes.
struct SchedulerConfig {
  SchedulerCoreConfig core;
  SchedulerDistributedConfig distributed;
  SchedulerOnlineConfig online;

  // ---- Projections onto the legacy per-layer structs -------------------
  FrameworkConfig framework() const;
  DistributedOptions distributedOptions() const;
  SolverOptions solverOptions() const;
  OnlineSolverConfig onlineSolver() const;

  // ---- Liftings from the legacy structs (unset layers keep defaults) --
  static SchedulerConfig fromFramework(const FrameworkConfig& config);
  static SchedulerConfig fromSolverOptions(const SolverOptions& options);
  static SchedulerConfig fromDistributedOptions(
      const DistributedOptions& options);
  static SchedulerConfig fromOnlineSolver(const OnlineSolverConfig& config);
};

}  // namespace treesched
