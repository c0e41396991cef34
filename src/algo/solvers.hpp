// The problem-level solvers' options and results, shared by trees
// (algo/tree_solvers.hpp) and line-networks (algo/line_solvers.hpp).
//
// One pipeline (algo/solvers.cpp) serves both shapes. A unit-height solve
// builds the instance universe and the shape's layering, runs the
// two-phase framework (§3.2) and returns the solution as assignments. An
// arbitrary-height solve (§6) runs the unit rule on the wide demands
// (h > 1/2) and the narrow rule on the rest, keeps the more profitable
// part on each network, and certifies the theorem's factor for the
// shape's Delta (6 on trees, 3 on lines) and the schedule's lambda.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "decomp/tree_decomposition.hpp"
#include "framework/two_phase.hpp"

namespace treesched {

/// Options of the problem-level solvers. Kept apart from FrameworkConfig
/// because a solver derives what a two-phase run takes as given: `hmin` =
/// 0 means "derive from the input heights", and the arbitrary-height
/// solvers pick the raise rule per sub-run (wide: unit, narrow: §6).
struct SolverOptions {
  double epsilon = 0.1;  ///< approximation slack (lambda = 1-eps staged)
  std::uint64_t seed = 1;
  /// Staged = this paper; Threshold = the Panconesi–Sozio schedule with
  /// lambda = 1/(5+eps) (used as the published baseline on lines and as an
  /// ablation on trees).
  SchedulePolicy schedule = SchedulePolicy::Staged;
  /// Tree decomposition behind the layering (trees only). Ideal gives the
  /// paper's Delta = 6; Balancing/RootFixing are ablations.
  DecompositionKind decomposition = DecompositionKind::Ideal;
  std::int32_t misRoundBudget = 0;  ///< <= 0: run Luby to completion
  bool fixedSchedule = false;       ///< paper's fixed global tuple schedule
  std::int32_t stepsPerStage = 0;   ///< 0 = derive from pmax/pmin
  double hmin = 0;                  ///< 0 = derive from the input heights
};

/// Result of one two-phase run, as assignments `A` (TreeAssignment or
/// LineAssignment, algo/assignments.hpp) sorted by demand.
template <typename A>
struct SolveResult {
  std::vector<A> assignments;
  double profit = 0;
  /// Certified upper bound on OPT: val(alpha,beta)/lambda by weak duality.
  double dualUpperBound = 0;
  /// Worst-case factor guaranteed by the run's (Delta, lambda).
  double certifiedBound = 0;
  TwoPhaseStats stats;
};

/// Result of an arbitrary-height solve, with the two sub-runs exposed.
template <typename A>
struct ArbitraryResult {
  std::vector<A> assignments;
  double profit = 0;
  double dualUpperBound = 0;  ///< UB(wide) + UB(narrow) >= OPT
  /// (Delta+1)/lambda + (2*Delta^2+1)/lambda for the shape's theorem Delta
  /// and the schedule's lambda (1-eps staged, 1/(5+eps) threshold).
  double certifiedBound = 0;
  std::optional<TwoPhaseStats> wideStats;
  std::optional<TwoPhaseStats> narrowStats;
  double wideProfit = 0;
  double narrowProfit = 0;
};

}  // namespace treesched
