// Unified layered scheduler configuration (the registry's one config).
//
// One run of the two-phase framework has one parameter set whether it
// runs centralized, over messages (§5) or once per online epoch. Each
// knob is declared once, in the layer it belongs to:
//   * core        — FrameworkConfig (framework/two_phase.hpp), the
//                   algorithmic knobs every engine shares;
//   * distributed — ExecutionConfig (dist/protocol.hpp): threads, crash
//                   injection, observer, telemetry, ledger.
// The engine option structs are compositions of these layers:
// DistributedOptions is an ExecutionConfig plus the six core knobs the
// protocol reads, and OnlineSolverConfig is a DistributedOptions plus
// the online extras. The one core-knob mapping lives in
// distributedOptions() / fromDistributedOptions() below.
#pragma once

#include "dist/protocol.hpp"
#include "framework/two_phase.hpp"
#include "online/incremental.hpp"

namespace treesched {

/// The one layered config the policy registry consumes.
struct SchedulerConfig {
  /// The registry always runs the fixed global schedule (like the
  /// protocol and the online path), so every scheduler id is comparable
  /// across engines and the bit-identity gates can hold.
  SchedulerConfig() { core.fixedSchedule = true; }

  FrameworkConfig core;
  ExecutionConfig distributed;

  // ---- Projections onto the engine option structs ----------------------
  FrameworkConfig framework() const { return core; }
  DistributedOptions distributedOptions() const;

  // ---- Liftings from the engine option structs (fixed schedule) --------
  static SchedulerConfig fromDistributedOptions(
      const DistributedOptions& options);
  static SchedulerConfig fromOnlineSolver(const OnlineSolverConfig& config);
};

}  // namespace treesched
