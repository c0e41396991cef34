// The two-phase primal-dual engine (paper §3.2, pseudocode Figure 7).
//
// Phase 1 walks the layering's groups in epochs; each epoch runs the stage
// plan; each step computes a maximal independent set of the still-
// unsatisfied members (Luby), raises every member of the set so its dual
// constraint becomes tight, and pushes the set onto a stack. Phase 2 pops
// the stack and greedily builds a feasible solution.
//
// Any run satisfying the interference property with critical-set size
// Delta and slackness lambda is a (Delta+1)/lambda-approximation for the
// unit rule (Lemma 3.1) and a (2*Delta^2+1)/lambda-approximation for the
// narrow rule (Lemma 6.1). The engine certifies this per run: it reports
// val(alpha, beta) and the measured lambda, so
//   dualUpperBound = val / lambda_measured >= p(OPT)
// is a per-instance optimality certificate.
//
// This is the *centralized reference implementation* with exact round
// accounting; src/dist/ runs the same algorithm over simulated message
// passing and produces bit-identical results under fixedSchedule.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/solution.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "framework/raise_policy.hpp"
#include "framework/schedule.hpp"
#include "obs/ledger.hpp"

namespace treesched {

/// Core algorithmic knobs of the two-phase engine, shared by every
/// engine that runs it: SchedulerConfig::core (policy/config.hpp) IS
/// this struct, and the distributed protocol's options
/// (dist/protocol.hpp) repeat the six knobs it reads.
struct FrameworkConfig {
  double epsilon = 0.1;  ///< staged: lambda = 1-eps; threshold: 1/(5+eps)
  RaiseRule rule = RaiseRule::Unit;
  SchedulePolicy schedule = SchedulePolicy::Staged;
  double hmin = 1.0;       ///< min height, used by the narrow staged plan
  std::uint64_t seed = 1;  ///< drives MIS priorities (deterministic)
  /// MIS rounds allowed per step; <= 0 runs to completion (maximal).
  std::int32_t misRoundBudget = 0;
  /// Fixed global schedule (paper §5 "Distributed Implementation"): run
  /// exactly stepsPerStage steps per stage even when U empties early;
  /// required for bit-equivalence with the distributed simulator.
  bool fixedSchedule = false;
  /// Steps per stage under fixedSchedule; 0 derives c*log(pmax/pmin).
  std::int32_t stepsPerStage = 0;
};

struct TwoPhaseStats {
  std::int32_t epochs = 0;
  std::int32_t stages = 0;
  std::int64_t steps = 0;
  std::int64_t misRounds = 0;
  std::int64_t raises = 0;
  std::int32_t maxStepsInStage = 0;  ///< Lemma 5.1 measures this
  std::int32_t delta = 0;            ///< layering critical-set size
  double lambdaTarget = 0;
  double lambdaMeasured = 0;  ///< min over instances of lhs/p after phase 1
};

struct TwoPhaseResult {
  Solution solution;
  double profit = 0;
  double dualObjective = 0;   ///< val(alpha, beta)
  double dualUpperBound = 0;  ///< val / lambdaMeasured >= p(OPT)
  TwoPhaseStats stats;
  /// Phase-1 stack in push order (each entry one independent set); kept
  /// for tests and for the approximation-bound audit.
  std::vector<std::vector<InstanceId>> stack;
};

/// Runs both phases. `layering` must satisfy the interference property
/// for the guarantees to hold.
///
/// This is, by definition, a one-line wrapper over runTwoPhaseRestricted
/// with `active` = every instance of the universe (ascending). The
/// restricted entry point is the primitive of the whole family — the
/// distributed warm-start protocol, the online incremental engine and
/// the policy registry (policy/registry.hpp) all solve restrictions of
/// it — and this wrapper is the full-universe special case, kept as the
/// ergonomic front door.
TwoPhaseResult runTwoPhase(const InstanceUniverse& universe,
                           const Layering& layering,
                           const FrameworkConfig& config);

/// Restricted run for the online subsystem (src/online/): phase 1 raises
/// only the instances in `active` (sorted ascending) and lambda is
/// measured over them alone; every other instance is invisible to the
/// run. With `active` spanning the whole universe this is exactly
/// runTwoPhase — and, under fixedSchedule, bit-identical to the
/// distributed warm-start entry point (dist/protocol.hpp) on the same
/// restriction, which is how the online equivalence gate compares an
/// incremental epoch against the from-scratch solve on the surviving
/// demand set.
TwoPhaseResult runTwoPhaseRestricted(const InstanceUniverse& universe,
                                     const Layering& layering,
                                     const FrameworkConfig& config,
                                     std::span<const InstanceId> active);

/// Phase 2, centralized — the library's one stack pop: newest set first,
/// members in order, greedy admission through the feasibility oracle
/// (returned, holding the admitted set in acceptance order). A `book` is
/// reset, then gets every verdict; a refusal's tuple is its stack
/// position. The distributed runPhase2 is the same pop over messages
/// (tests/dist_equivalence_test.cpp pins the two together).
template <class U>
BasicFeasibilityOracle<U> popStack(
    const U& universe, const std::vector<std::vector<InstanceId>>& stack,
    CertificateBook* book = nullptr) {
  BasicFeasibilityOracle<U> oracle(universe);
  if (book != nullptr) book->reset(universe);
  for (std::size_t s = stack.size(); s-- > 0;) {
    for (const InstanceId i : stack[s]) {
      if (oracle.canAdd(i)) {
        oracle.add(i);
        if (book != nullptr) book->admit(universe, i);
      } else if (book != nullptr) {
        book->reject(universe, i, static_cast<std::int64_t>(s),
                     book->refusal(universe, i));
      }
    }
  }
  return oracle;
}

/// Worst-case approximation factor certified by Lemma 3.1 / Lemma 6.1 for
/// the given rule, Delta and lambda.
double approximationBound(RaiseRule rule, std::int32_t delta, double lambda);

}  // namespace treesched
