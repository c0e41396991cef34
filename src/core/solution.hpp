// Feasible solutions and their validation (paper §2).
//
// A solution is a set of demand instances. Feasibility requires:
//  (i)  at most one instance per demand;
//  (ii) per network edge, the selected instances through it have total
//       height <= 1 (unit-height case: edge-disjoint paths).
// Accessibility is enforced structurally: instances only exist for
// accessible networks (see InstanceUniverse builders). Everything here
// is templated on the universe type so the same validation and oracle
// serve the static pool and the dynamic (live-restricted) universe.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/tolerances.hpp"
#include "core/universe.hpp"
#include "util/check.hpp"

namespace treesched {

/// A (candidate) solution over a universe: instance ids, unordered.
struct Solution {
  std::vector<InstanceId> instances;

  std::int32_t size() const {
    return static_cast<std::int32_t>(instances.size());
  }
};

/// Result of validating a solution.
struct ValidationReport {
  bool feasible = true;
  std::string firstViolation;  ///< Empty when feasible.
};

/// Sum of instance profits.
template <class U>
double solutionProfit(const U& universe, const Solution& sol) {
  double total = 0;
  for (const InstanceId i : sol.instances) {
    total += universe.instance(i).profit;
  }
  return total;
}

/// Checks feasibility; reports the first violation found.
template <class U>
ValidationReport validateSolution(const U& universe, const Solution& sol) {
  ValidationReport report;
  std::vector<bool> demandUsed(static_cast<std::size_t>(universe.numDemands()),
                               false);
  std::vector<double> edgeLoad(
      static_cast<std::size_t>(universe.numGlobalEdges()), 0.0);
  for (const InstanceId i : sol.instances) {
    const InstanceRecord& rec = universe.instance(i);
    if (demandUsed[static_cast<std::size_t>(rec.demand)]) {
      report.feasible = false;
      std::ostringstream os;
      os << "demand " << rec.demand << " selected more than once";
      report.firstViolation = os.str();
      return report;
    }
    demandUsed[static_cast<std::size_t>(rec.demand)] = true;
    for (const GlobalEdgeId e : universe.path(i)) {
      edgeLoad[static_cast<std::size_t>(e)] += rec.height;
      if (edgeLoad[static_cast<std::size_t>(e)] > 1.0 + kCapacityTolerance) {
        report.feasible = false;
        std::ostringstream os;
        os << "edge " << e << " over capacity ("
           << edgeLoad[static_cast<std::size_t>(e)] << " > 1)";
        report.firstViolation = os.str();
        return report;
      }
    }
  }
  return report;
}

/// Throws CheckError when infeasible — used by algorithm postconditions.
template <class U>
void requireFeasible(const U& universe, const Solution& sol) {
  const ValidationReport report = validateSolution(universe, sol);
  checkThat(report.feasible, "solution feasible: " + report.firstViolation,
            __FILE__, __LINE__);
}

/// Incremental feasibility oracle used by phase 2 of the framework and by
/// exact solvers: maintains per-edge residual capacity and per-demand use.
template <class U>
class BasicFeasibilityOracle {
 public:
  explicit BasicFeasibilityOracle(const U& universe)
      : universe_(universe),
        edgeLoad_(static_cast<std::size_t>(universe.numGlobalEdges()), 0.0),
        demandUsed_(static_cast<std::size_t>(universe.numDemands()), false) {}

  /// True iff `i` can be added without violating feasibility.
  bool canAdd(InstanceId i) const {
    const InstanceRecord& rec = universe_.instance(i);
    if (demandUsed_[static_cast<std::size_t>(rec.demand)]) return false;
    for (const GlobalEdgeId e : universe_.path(i)) {
      if (edgeLoad_[static_cast<std::size_t>(e)] + rec.height >
          1.0 + kCapacityTolerance) {
        return false;
      }
    }
    return true;
  }

  /// Adds `i`; requires canAdd(i).
  void add(InstanceId i) {
    checkThat(canAdd(i), "FeasibilityOracle::add requires canAdd", __FILE__,
              __LINE__);
    const InstanceRecord& rec = universe_.instance(i);
    demandUsed_[static_cast<std::size_t>(rec.demand)] = true;
    for (const GlobalEdgeId e : universe_.path(i)) {
      edgeLoad_[static_cast<std::size_t>(e)] += rec.height;
    }
    solution_.instances.push_back(i);
    profit_ += rec.profit;
  }

  /// Removes a previously added instance.
  void remove(InstanceId i) {
    auto it =
        std::find(solution_.instances.begin(), solution_.instances.end(), i);
    checkThat(it != solution_.instances.end(),
              "FeasibilityOracle::remove of member", __FILE__, __LINE__);
    solution_.instances.erase(it);
    const InstanceRecord& rec = universe_.instance(i);
    demandUsed_[static_cast<std::size_t>(rec.demand)] = false;
    for (const GlobalEdgeId e : universe_.path(i)) {
      edgeLoad_[static_cast<std::size_t>(e)] -= rec.height;
    }
    profit_ -= rec.profit;
  }

  const Solution& solution() const { return solution_; }
  double profit() const { return profit_; }

 private:
  const U& universe_;
  std::vector<double> edgeLoad_;  ///< per global edge
  std::vector<bool> demandUsed_;  ///< per demand
  Solution solution_;
  double profit_ = 0;
};

using FeasibilityOracle = BasicFeasibilityOracle<InstanceUniverse>;

}  // namespace treesched
