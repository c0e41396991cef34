// Distributed solvers for line-networks with windows (paper §7).
//
//  * solveUnitLine      — Theorem 7.1: (4+eps)-approximation, Delta = 3 via
//    the length-based layering, staged slackness lambda = 1-eps.
//  * solveArbitraryLine — Theorem 7.2: (23+eps)-approximation via the
//    wide/narrow split (narrow: 19+eps by Lemma 6.1 with Delta = 3).
//  * solvePanconesiSozio* — the published baselines reproduced from the
//    paper's description (§5 Remark): identical layering but the
//    single-stage threshold schedule with lambda = 1/(5+eps), giving
//    (20+eps) for unit heights. The paper's headline improvement is the
//    measured gap between these pairs (experiment E6/E7).
//
// One pipeline serves trees and lines (algo/solvers.hpp); lines bring the
// line universe, the §7 length layering and the theorem's Delta = 3.
#pragma once

#include "algo/assignments.hpp"
#include "algo/solvers.hpp"
#include "core/line_problem.hpp"

namespace treesched {

using LineSolveResult = SolveResult<LineAssignment>;
using ArbitraryLineResult = ArbitraryResult<LineAssignment>;

/// Theorem 7.1. Requires a unit-height problem.
LineSolveResult solveUnitLine(const LineProblem& problem,
                              const SolverOptions& options = {});

/// Theorem 7.2. Accepts any heights in (0, 1].
ArbitraryLineResult solveArbitraryLine(const LineProblem& problem,
                                       const SolverOptions& options = {});

/// Panconesi–Sozio baseline (unit height): threshold schedule, (20+eps).
LineSolveResult solvePanconesiSozioUnitLine(const LineProblem& problem,
                                            SolverOptions options = {});

/// Panconesi–Sozio-style baseline for arbitrary heights (threshold
/// schedule on both the wide and narrow sub-runs). Note: PS's published
/// arbitrary-height constants differ in detail; this reconstruction keeps
/// everything equal to our algorithm except the schedule policy, so the
/// comparison isolates the paper's staged-slackness contribution.
ArbitraryLineResult solvePanconesiSozioArbitraryLine(
    const LineProblem& problem, SolverOptions options = {});

}  // namespace treesched
