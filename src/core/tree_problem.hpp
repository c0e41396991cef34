// The throughput-maximization problem on tree-networks (paper §2).
#pragma once

#include <vector>

#include "core/demand.hpp"
#include "graph/tree_network.hpp"

namespace treesched {

/// Full problem input: a vertex set shared by `networks`, one demand per
/// processor, and per-processor accessibility sets Acc(P).
///
/// Invariants (checked by validate()):
///  * every network spans exactly `numVertices` vertices;
///  * demand endpoints are distinct vertices in range;
///  * heights lie in (0, 1], profits are positive;
///  * every accessibility list is non-empty, sorted, duplicate-free and
///    references existing networks.
struct TreeProblem {
  std::int32_t numVertices = 0;
  std::vector<TreeNetwork> networks;
  std::vector<Demand> demands;
  /// access[d] = sorted list of TreeIds demand d's processor may use.
  std::vector<std::vector<TreeId>> access;

  std::int32_t numDemands() const {
    return static_cast<std::int32_t>(demands.size());
  }
  std::int32_t numNetworks() const {
    return static_cast<std::int32_t>(networks.size());
  }

  /// Throws CheckError when an invariant is violated.
  void validate() const;

  /// True when every demand has unit height (the §2-§5 setting).
  bool isUnitHeight() const;
};

}  // namespace treesched
