// The throughput-maximization problem on line-networks with windows
// (paper §1 "Line-Networks" and §7).
//
// The timeline has `numSlots` discrete timeslots 0..numSlots-1; each slot
// is one edge of an (implicit) path network, and each of the `numResources`
// resources offers unit bandwidth on every slot. A windowed demand may run
// on any `processing`-slot segment inside its [release, deadline] window,
// on any resource its processor can access.
#pragma once

#include <cstdint>
#include <vector>

#include "core/demand.hpp"

namespace treesched {

/// Resource index in [0, numResources). Line resources play the role
/// TreeIds play on trees.
using ResourceId = std::int32_t;

struct LineProblem {
  std::int32_t numSlots = 0;
  std::int32_t numResources = 0;
  std::vector<WindowDemand> demands;
  /// access[d] = sorted list of resources demand d's processor may use.
  std::vector<std::vector<ResourceId>> access;

  std::int32_t numDemands() const {
    return static_cast<std::int32_t>(demands.size());
  }

  /// Throws CheckError when an invariant is violated: window inside the
  /// timeline, processing fits in the window, positive profits, heights in
  /// (0,1], well-formed accessibility lists.
  void validate() const;

  bool isUnitHeight() const;
};

/// Convenience builder: full accessibility for line problems.
std::vector<std::vector<ResourceId>> fullLineAccess(std::int32_t numDemands,
                                                    std::int32_t numResources);

/// A demand with no slack in its window (release + processing - 1 ==
/// deadline) has exactly one execution segment; this helper builds such a
/// fixed-interval demand, the windowless setting of Figure 1.
WindowDemand makeIntervalDemand(DemandId id, std::int32_t start,
                                std::int32_t end, double profit,
                                double height = 1.0);

}  // namespace treesched
