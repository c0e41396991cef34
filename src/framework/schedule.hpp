// Stage scheduling for phase 1 (paper §5, §6, §7 + PS baseline remark).
//
// Staged (this paper): epoch k processes group G_k in stages j = 1..b;
// stage j loops MIS+raise steps until every member is (1 - xi^j)-satisfied.
// After stage b >= log_xi(eps), all members are (1 - eps)-satisfied, so the
// framework's slackness is lambda = 1 - eps.
//   * Unit rule (§5):   xi = 2*Delta' / (2*Delta' + 1),  Delta' = Delta + 1
//     (Delta = 6 -> xi = 14/15; Delta = 3 -> xi = 8/9, exactly §5/§7).
//   * Narrow rule (§6): xi = K / (K + hmin) "for a suitable constant" — we
//     re-derive Claim 5.2 under the narrow raise: a kill contributes
//     >= 2*hmin*|pi|*delta >= 2*hmin*delta to the victim's LHS while
//     delta >= xi^j * p / (1 + 2*Delta^2); requiring the killer/victim
//     profit ratio >= 2 gives xi/(1-xi) >= (1 + 2*Delta^2)/hmin, i.e.
//     K = 1 + 2*Delta^2 (73 for trees, 19 for lines).
//
// Threshold (Panconesi–Sozio baseline, §5 Remark): one stage per epoch with
// the fixed target lambda = 1/(5 + eps); an instance that reaches it is
// ignored for the rest of phase 1.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/tolerances.hpp"
#include "framework/raise_policy.hpp"

namespace treesched {

enum class SchedulePolicy { Staged, Threshold };

/// Per-epoch stage plan: number of stages and each stage's satisfaction
/// target in [0, 1].
struct StagePlan {
  SchedulePolicy policy = SchedulePolicy::Staged;
  double xi = 0;                ///< staged decay factor (unused by Threshold)
  std::int32_t numStages = 1;   ///< b
  double lambdaTarget = 0;      ///< slackness guaranteed at end of phase 1

  /// Satisfaction target of stage j (1-based).
  double stageTarget(std::int32_t j) const;

  /// Every stage's target, stage j's at index j - 1. Checked to rise,
  /// which is what makes firstShortStage's binary search exact.
  std::vector<double> stageTargets() const;
};

/// Phase 1's satisfaction test: an instance of profit `profit` whose LHS
/// is `lhs` falls short of the stage target `target`. The one predicate
/// of the centralized engine and the protocol, whose schedules must agree
/// bit for bit.
inline bool fallsShort(double lhs, double profit, double target) {
  return lhs < target * profit - kSatisfyTolerance * profit;
}

/// The first stage after `stage` at which an instance of LHS `lhs` and
/// profit `profit` falls short of `targets` (StagePlan::stageTargets);
/// targets.size() + 1 when it never does. LHS only grows in phase 1 and
/// targets rise, so an owner that knows this for each of its instances
/// knows the first stage at which it could have anything to say.
std::int32_t firstShortStage(std::span<const double> targets,
                             std::int32_t stage, double lhs, double profit);

/// Builds the plan. `delta` is the layering's critical-set size; `hmin`
/// is only read for RaiseRule::Narrow.
StagePlan makeStagePlan(SchedulePolicy policy, RaiseRule rule, double epsilon,
                        std::int32_t delta, double hmin);

/// Steps per stage of the fixed global schedule when not set explicitly:
/// c * log(pmax/pmin) with generous constants (Lemma 5.1 shows each stage
/// needs at most 1 + log2(pmax/pmin) maximal-MIS steps). Shared by the
/// centralized engine and the distributed protocol — the bit-identity
/// contract requires both to walk the same schedule.
std::int32_t fixedScheduleStepsPerStage(double profitMax, double profitMin);

}  // namespace treesched
