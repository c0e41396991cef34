// Problem-level solution representation shared by all solvers.
//
// Solvers return *assignments* — which demand runs where — rather than
// internal instance ids, so callers never need the instance universe. For
// tree networks an assignment is (demand, network); paths are unique in
// trees (§1). For line networks it is (demand, resource, start slot)
// because windows make the execution segment a choice (§7).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/line_problem.hpp"
#include "core/tree_problem.hpp"
#include "util/check.hpp"

namespace treesched {

struct TreeAssignment {
  DemandId demand = 0;
  TreeId network = 0;
};

struct LineAssignment {
  DemandId demand = 0;
  ResourceId resource = 0;
  std::int32_t start = 0;  ///< first slot of the execution segment
};

/// Total profit of the assigned demands (TreeAssignment on a TreeProblem,
/// LineAssignment on a LineProblem).
template <typename Problem, typename A>
double assignmentProfit(const Problem& problem,
                        const std::vector<A>& assignments) {
  double total = 0;
  for (const A& a : assignments) {
    total += problem.demands[static_cast<std::size_t>(a.demand)].profit;
  }
  return total;
}

/// Checks feasibility at the problem level (accessibility, one assignment
/// per demand, edge/slot capacity). Empty string when feasible.
std::string checkAssignments(const TreeProblem& problem,
                             const std::vector<TreeAssignment>& assignments);
std::string checkAssignments(const LineProblem& problem,
                             const std::vector<LineAssignment>& assignments);

/// Sorts `assignments` by demand, then throws CheckError naming the first
/// violation unless they are feasible on `problem`: how the framework
/// solvers and the sequential solver finish their results.
template <typename Problem, typename A>
void finishAssignments(const Problem& problem, std::vector<A>& assignments) {
  std::sort(assignments.begin(), assignments.end(),
            [](const A& a, const A& b) { return a.demand < b.demand; });
  const std::string err = checkAssignments(problem, assignments);
  checkThat(err.empty(), "solver produced feasible assignments: " + err,
            __FILE__, __LINE__);
}

}  // namespace treesched
