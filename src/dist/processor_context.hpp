// Per-processor local state of the §5 protocol (dist/protocol.hpp): the
// edges a processor's own instances use, its dual view over them and its
// phase-2 loads, in five flat buffers whatever the demand's size. A
// one-shot run builds one context per processor when it starts; the
// online solver (online/incremental.hpp) keeps one per live demand,
// built at arrival and freed at departure.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/demand.hpp"
#include "core/tolerances.hpp"
#include "framework/raise_policy.hpp"
#include "util/check.hpp"

namespace treesched {

/// One dual raise as known to its owner before broadcasting.
struct PendingRaise {
  DemandId from = 0;
  InstanceId instance = kNoInstance;
  double alphaIncrement = 0;
  double betaIncrement = 0;
};

/// One processor's local state. Reentrant by construction: every method
/// takes the shared read-only structures explicitly and writes only this
/// processor's own slots (plus the lhs entries of its own instances), so
/// contexts of distinct processors run concurrently with no hidden
/// shared state. Methods are templated on the universe/layering types,
/// so one context serves the static pool and the dynamic universe.
///
/// Between protocol runs the dual view and the loads are zero: a run
/// accumulates only its own raises (the audit compares them with that
/// run's ground truth), and a persistent context is zeroed again after
/// the audit.
struct ProcessorContext {
  DemandId self = 0;
  double alpha = 0;                   ///< alpha(self), the demand's own dual
  std::vector<GlobalEdgeId> tracked;  ///< sorted, duplicate-free
  /// Own instances on tracked edge k: ownIds[ownOffset[k], ownOffset[k+1]),
  /// ascending.
  std::vector<std::int32_t> ownOffset;
  std::vector<InstanceId> ownIds;
  std::vector<double> beta;  ///< per tracked edge, local view
  std::vector<double> load;  ///< per tracked edge, phase-2 accepted load

  bool operator==(const ProcessorContext&) const = default;

  /// Builds processor p's context from scratch (any previous content is
  /// dropped), with a zero dual view and zero loads.
  template <class U>
  void init(const U& u, DemandId p) {
    clear();
    self = p;
    const auto own = u.instancesOfDemand(p);
    std::size_t pairs = 0;
    for (const InstanceId i : own) {
      pairs += u.path(i).size();
    }
    // ownIds holds one entry per (own instance, path edge) pair. It first
    // gathers the pairs' edges: sorted, their runs give the tracked list
    // and each edge's first slot. Then the instances overwrite it.
    ownIds.reserve(pairs);
    for (const InstanceId i : own) {
      const auto path = u.path(i);
      ownIds.insert(ownIds.end(), path.begin(), path.end());
    }
    std::sort(ownIds.begin(), ownIds.end());
    std::size_t distinct = 0;
    for (std::size_t slot = 0; slot < pairs; ++slot) {
      if (slot == 0 || ownIds[slot] != ownIds[slot - 1]) ++distinct;
    }
    // ownOffset[k + 1] starts at tracked edge k's first slot; writing the
    // instances edge by edge advances it past the edge's last slot, which
    // is the CSR offset.
    tracked.reserve(distinct);
    ownOffset.assign(distinct + 1, 0);
    for (std::size_t slot = 0; slot < pairs; ++slot) {
      if (slot > 0 && ownIds[slot] == ownIds[slot - 1]) continue;
      tracked.push_back(ownIds[slot]);
      ownOffset[tracked.size()] = static_cast<std::int32_t>(slot);
    }
    for (const InstanceId i : own) {
      for (const GlobalEdgeId e : u.path(i)) {
        const auto next = static_cast<std::size_t>(trackedIndex(e)) + 1;
        ownIds[static_cast<std::size_t>(ownOffset[next]++)] = i;
      }
    }
    beta.assign(tracked.size(), 0.0);
    load.assign(tracked.size(), 0.0);
  }

  /// Drops everything and frees the buffers: the state of a processor
  /// whose demand is not live.
  void clear() { *this = ProcessorContext{}; }

  /// Zeroes the dual view (alpha and every beta) for the next run.
  void zeroDualView() {
    alpha = 0;
    std::fill(beta.begin(), beta.end(), 0.0);
  }

  /// Position of `e` in the tracked-edge list, or -1.
  std::int32_t trackedIndex(GlobalEdgeId e) const {
    const auto it = std::lower_bound(tracked.begin(), tracked.end(), e);
    if (it == tracked.end() || *it != e) return -1;
    return static_cast<std::int32_t>(it - tracked.begin());
  }

  /// Own instances whose path contains tracked edge number `idx`.
  std::span<const InstanceId> ownOn(std::int32_t idx) const {
    const auto k = static_cast<std::size_t>(idx);
    return std::span<const InstanceId>(ownIds).subspan(
        static_cast<std::size_t>(ownOffset[k]),
        static_cast<std::size_t>(ownOffset[k + 1] - ownOffset[k]));
  }

  /// Applies one raise to this processor's local view: the alpha part if
  /// the raise is its own, then the beta part on every critical edge it
  /// tracks — the same alpha-then-edges order as the centralized engine.
  /// `lhsLocal` is global-indexed but only this demand's entries are
  /// written.
  template <class U, class L>
  void applyRaise(const U& u, const L& lay, RaiseRule rule,
                  const PendingRaise& raise, std::vector<double>& lhsLocal) {
    if (raise.from == self) {
      alpha += raise.alphaIncrement;
      for (const InstanceId k : u.instancesOfDemand(self)) {
        lhsLocal[static_cast<std::size_t>(k)] += raise.alphaIncrement;
      }
    }
    for (const GlobalEdgeId e : lay.critical(raise.instance)) {
      const std::int32_t idx = trackedIndex(e);
      if (idx < 0) continue;
      beta[static_cast<std::size_t>(idx)] += raise.betaIncrement;
      for (const InstanceId k : ownOn(idx)) {
        const double factor =
            rule == RaiseRule::Narrow ? u.instance(k).height : 1.0;
        lhsLocal[static_cast<std::size_t>(k)] +=
            factor * raise.betaIncrement;
      }
    }
  }

  /// True iff this processor can accept its own instance `i` given its
  /// locally known edge loads — the exact capacity test of the
  /// centralized FeasibilityOracle.
  template <class U>
  bool capacityOk(const U& u, InstanceId i) const {
    const double h = u.instance(i).height;
    for (const GlobalEdgeId e : u.path(i)) {
      const std::int32_t idx = trackedIndex(e);
      checkThat(idx >= 0, "own path edge tracked", __FILE__, __LINE__);
      if (load[static_cast<std::size_t>(idx)] + h > 1.0 + kCapacityTolerance) {
        return false;
      }
    }
    return true;
  }

  /// Adds the load of an accepted instance on every tracked edge of its
  /// path (the accepter's own instance, or a neighbour's Accept message).
  template <class U>
  void addLoad(const U& u, InstanceId i) {
    const double h = u.instance(i).height;
    for (const GlobalEdgeId e : u.path(i)) {
      const std::int32_t idx = trackedIndex(e);
      if (idx < 0) continue;
      load[static_cast<std::size_t>(idx)] += h;
    }
  }
};

}  // namespace treesched
