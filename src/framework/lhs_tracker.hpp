// Incrementally maintained dual-constraint LHS per instance.
//
// A raise touches only the instances that share the raised demand or a
// raised critical edge; the universe indexes both, so updating costs
// O(|Inst(a)| + sum over raised edges of |instancesOnEdge|) instead of a
// full rescan. Used by the two-phase engine and the sequential algorithm.
// Templated on the universe type: over a `DynamicUniverse` the edge and
// demand indexes enumerate live instances only, which is exactly the
// restriction of the pool-wide update to the live id set.
#pragma once

#include <span>
#include <vector>

#include "core/universe.hpp"
#include "framework/raise_policy.hpp"

namespace treesched {

// The single definition of the dual-constraint LHS update rule, shared
// by the LhsTracker below, the protocol engine's ground truth and the
// online incremental solver (which applies raises with negated amounts
// when purging departed demands). Keeping one copy is what makes the
// online "purge exactly" invariant safe against future raise-rule
// changes.

/// Adds `by` to the LHS of every instance of demand `d` (alpha part).
template <class U>
void applyAlphaToLhs(const U& universe, DemandId d, double by,
                     std::span<double> lhs) {
  for (const InstanceId i : universe.instancesOfDemand(d)) {
    lhs[static_cast<std::size_t>(i)] += by;
  }
}

/// Adds `by` (times the Narrow-rule height factor) to the LHS of every
/// instance on global edge `e` (beta part).
template <class U>
void applyBetaToLhs(const U& universe, RaiseRule rule, GlobalEdgeId e,
                    double by, std::span<double> lhs) {
  for (const InstanceId i : universe.instancesOnEdge(e)) {
    const double factor =
        rule == RaiseRule::Narrow ? universe.instance(i).height : 1.0;
    lhs[static_cast<std::size_t>(i)] += factor * by;
  }
}

/// Applies one raise of instance `i` to `lhs`: alpha first, then each
/// critical edge in order — the accumulation order every engine shares,
/// so any two replays of one raise sequence agree bit for bit.
template <class U>
void applyRaiseToLhs(const U& universe, RaiseRule rule, InstanceId i,
                     std::span<const GlobalEdgeId> critical,
                     const RaiseAmounts& amounts, std::span<double> lhs) {
  applyAlphaToLhs(universe, universe.instance(i).demand,
                  amounts.alphaIncrement, lhs);
  for (const GlobalEdgeId e : critical) {
    applyBetaToLhs(universe, rule, e, amounts.betaIncrement, lhs);
  }
}

class LhsTracker {
 public:
  LhsTracker(const InstanceUniverse& universe, RaiseRule rule)
      : universe_(universe),
        rule_(rule),
        lhs_(static_cast<std::size_t>(universe.numInstances()), 0.0) {}

  double lhs(InstanceId i) const { return lhs_[static_cast<std::size_t>(i)]; }

  /// Applies a computed raise of instance `i` (alpha + its critical edges).
  void onRaise(InstanceId i, std::span<const GlobalEdgeId> critical,
               const RaiseAmounts& amounts) {
    applyRaiseToLhs(universe_, rule_, i, critical, amounts, lhs_);
  }

 private:
  const InstanceUniverse& universe_;
  RaiseRule rule_;
  std::vector<double> lhs_;
};

}  // namespace treesched
