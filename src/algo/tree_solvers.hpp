// Distributed solvers for tree-networks (paper §5 and §6).
//
//  * solveUnitTree       — Theorem 5.3: (7+eps)-approximation for the unit
//    height case; Delta = 6 via the ideal decomposition, staged slackness
//    lambda = 1-eps.
//  * solveArbitraryTree  — Theorem 6.3: (80+eps)-approximation for
//    arbitrary heights: the unit-height algorithm on the wide instances
//    (h > 1/2), the narrow-rule framework on the narrow instances
//    (h <= 1/2, Lemma 6.2: 73+eps), combined per network by taking the
//    more profitable set.
//
// One pipeline serves trees and lines (algo/solvers.hpp); trees bring the
// tree universe, the layering of `SolverOptions::decomposition` and the
// theorem's Delta = 6. These functions run the *centralized reference
// engine* with exact round accounting; src/dist/ executes the same
// algorithm over simulated message passing.
#pragma once

#include "algo/assignments.hpp"
#include "algo/solvers.hpp"
#include "core/tree_problem.hpp"

namespace treesched {

using TreeSolveResult = SolveResult<TreeAssignment>;
using ArbitraryTreeResult = ArbitraryResult<TreeAssignment>;

/// Theorem 5.3. Requires a unit-height problem.
TreeSolveResult solveUnitTree(const TreeProblem& problem,
                              const SolverOptions& options = {});

/// Theorem 6.3. Accepts any heights in (0, 1].
ArbitraryTreeResult solveArbitraryTree(const TreeProblem& problem,
                                       const SolverOptions& options = {});

}  // namespace treesched
