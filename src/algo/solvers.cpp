// The one solver pipeline behind algo/tree_solvers.hpp and
// algo/line_solvers.hpp. Trees and lines differ only in the overload set
// at the top; the framework run, the subproblem split and the §6
// wide/narrow combine are written once.
#include "algo/solvers.hpp"

#include <algorithm>
#include <utility>

#include "algo/line_solvers.hpp"
#include "algo/tree_solvers.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "util/check.hpp"

namespace treesched {

namespace {

InstanceUniverse universeOf(const TreeProblem& problem) {
  return InstanceUniverse::fromTreeProblem(problem);
}
InstanceUniverse universeOf(const LineProblem& problem) {
  return InstanceUniverse::fromLineProblem(problem);
}

Layering layeringOf(const TreeProblem& problem,
                    const InstanceUniverse& universe,
                    const SolverOptions& options) {
  return buildTreeLayering(problem, universe, options.decomposition);
}
Layering layeringOf(const LineProblem& problem,
                    const InstanceUniverse& universe,
                    const SolverOptions& /*options*/) {
  return buildLineLayering(problem, universe);
}

TreeAssignment assignmentOf(const TreeProblem& /*problem*/,
                            const InstanceRecord& rec) {
  return {rec.demand, rec.network};
}
LineAssignment assignmentOf(const LineProblem& /*problem*/,
                            const InstanceRecord& rec) {
  return {rec.demand, rec.network, rec.u};
}

std::int32_t networkOf(const TreeAssignment& a) { return a.network; }
std::int32_t networkOf(const LineAssignment& a) { return a.resource; }

std::int32_t numNetworks(const TreeProblem& problem) {
  return problem.numNetworks();
}
std::int32_t numNetworks(const LineProblem& problem) {
  return problem.numResources;
}

/// Delta of the shape's theorems: the ideal decomposition's 6 (Lemma 4.3)
/// and the {start, mid, end} slots' 3 (§7).
std::int32_t theoremDelta(const TreeProblem& /*problem*/) { return 6; }
std::int32_t theoremDelta(const LineProblem& /*problem*/) { return 3; }

/// The FrameworkConfig of one two-phase run over `problem` under
/// `options` with raise rule `rule`.
template <typename Problem>
FrameworkConfig frameworkConfig(const Problem& problem,
                                const SolverOptions& options, RaiseRule rule) {
  double hmin = 1.0;  // stands in for options.hmin = 0
  for (const auto& d : problem.demands) hmin = std::min(hmin, d.height);
  FrameworkConfig cfg;
  cfg.epsilon = options.epsilon;
  cfg.rule = rule;
  cfg.schedule = options.schedule;
  cfg.hmin = options.hmin > 0 ? options.hmin : hmin;
  cfg.seed = options.seed;
  cfg.misRoundBudget = options.misRoundBudget;
  cfg.fixedSchedule = options.fixedSchedule;
  cfg.stepsPerStage = options.stepsPerStage;
  return cfg;
}

template <typename A, typename Problem>
SolveResult<A> runFramework(const Problem& problem,
                            const SolverOptions& options, RaiseRule rule) {
  const InstanceUniverse universe = universeOf(problem);
  const Layering layering = layeringOf(problem, universe, options);
  const TwoPhaseResult run =
      runTwoPhase(universe, layering, frameworkConfig(problem, options, rule));

  SolveResult<A> result;
  result.assignments.reserve(run.solution.instances.size());
  for (const InstanceId i : run.solution.instances) {
    result.assignments.push_back(assignmentOf(problem, universe.instance(i)));
  }
  finishAssignments(problem, result.assignments);
  result.profit = run.profit;
  result.dualUpperBound = run.dualUpperBound;
  result.certifiedBound =
      approximationBound(rule, run.stats.delta, run.stats.lambdaTarget);
  result.stats = run.stats;
  return result;
}

/// The demands `keep` (ascending) of `problem` on its networks, renumbered
/// 0..|keep|-1.
template <typename Problem>
Problem subProblem(const Problem& problem, const std::vector<DemandId>& keep) {
  Problem sub = problem;
  sub.demands.clear();
  sub.access.clear();
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const auto k = static_cast<std::size_t>(keep[i]);
    sub.demands.push_back(problem.demands[k]);
    sub.demands.back().id = static_cast<DemandId>(i);
    sub.access.push_back(problem.access[k]);
  }
  return sub;
}

/// §6 "Overall Algorithm" (Theorems 6.3 and 7.2).
template <typename A, typename Problem>
ArbitraryResult<A> solveArbitrary(const Problem& problem,
                                  const SolverOptions& options) {
  problem.validate();
  std::vector<DemandId> wide;
  std::vector<DemandId> narrow;
  for (const auto& d : problem.demands) {
    (isNarrow(d.height) ? narrow : wide).push_back(d.id);
  }

  ArbitraryResult<A> result;
  // Runs one part on its own subproblem; returns its assignments in the
  // original demand ids.
  const auto runPart = [&](const std::vector<DemandId>& ids, RaiseRule rule,
                           std::optional<TwoPhaseStats>& stats,
                           double& profit) {
    if (ids.empty()) return std::vector<A>{};
    SolveResult<A> run =
        runFramework<A>(subProblem(problem, ids), options, rule);
    for (A& a : run.assignments) {
      a.demand = ids[static_cast<std::size_t>(a.demand)];
    }
    stats = run.stats;
    result.dualUpperBound += run.dualUpperBound;
    profit = run.profit;
    return std::move(run.assignments);
  };
  // Two overlapping wide instances can never coexist, so the unit-height
  // algorithm applies to the wide part verbatim.
  const std::vector<A> wideAssign =
      runPart(wide, RaiseRule::Unit, result.wideStats, result.wideProfit);
  const std::vector<A> narrowAssign = runPart(
      narrow, RaiseRule::Narrow, result.narrowStats, result.narrowProfit);

  // Per-network combine: keep whichever part earns more on each network.
  // Feasible because a demand is wide xor narrow and each part is feasible
  // per network on its own.
  const auto byNetwork = [&](const std::vector<A>& part) {
    std::vector<double> sum(static_cast<std::size_t>(numNetworks(problem)),
                            0.0);
    for (const A& a : part) {
      sum[static_cast<std::size_t>(networkOf(a))] +=
          problem.demands[static_cast<std::size_t>(a.demand)].profit;
    }
    return sum;
  };
  const std::vector<double> wideByNet = byNetwork(wideAssign);
  const std::vector<double> narrowByNet = byNetwork(narrowAssign);
  const auto wideWins = [&](const A& a) {
    const auto net = static_cast<std::size_t>(networkOf(a));
    return wideByNet[net] >= narrowByNet[net];
  };
  for (const A& a : wideAssign) {
    if (wideWins(a)) result.assignments.push_back(a);
  }
  for (const A& a : narrowAssign) {
    if (!wideWins(a)) result.assignments.push_back(a);
  }
  result.profit = assignmentProfit(problem, result.assignments);

  // p(Opt) <= p(Opt_wide) + p(Opt_narrow)
  //   <= (Delta+1)/lambda p(S1) + (2*Delta^2+1)/lambda p(S2)
  //   <= ((Delta+1) + (2*Delta^2+1))/lambda p(S)
  // since p(S) >= max(p(S1), p(S2)) after the combine: 80/(1-eps) on
  // trees and 23/(1-eps) on lines under the staged schedule.
  const std::int32_t delta = theoremDelta(problem);
  const double lambda = makeStagePlan(options.schedule, RaiseRule::Unit,
                                      options.epsilon, delta, 1.0)
                            .lambdaTarget;
  result.certifiedBound = approximationBound(RaiseRule::Unit, delta, lambda) +
                          approximationBound(RaiseRule::Narrow, delta, lambda);
  const std::string err = checkAssignments(problem, result.assignments);
  checkThat(err.empty(), "combined assignments feasible: " + err, __FILE__,
            __LINE__);
  return result;
}

}  // namespace

TreeSolveResult solveUnitTree(const TreeProblem& problem,
                              const SolverOptions& options) {
  checkThat(problem.isUnitHeight(), "solveUnitTree requires unit heights",
            __FILE__, __LINE__);
  return runFramework<TreeAssignment>(problem, options, RaiseRule::Unit);
}

ArbitraryTreeResult solveArbitraryTree(const TreeProblem& problem,
                                       const SolverOptions& options) {
  return solveArbitrary<TreeAssignment>(problem, options);
}

LineSolveResult solveUnitLine(const LineProblem& problem,
                              const SolverOptions& options) {
  checkThat(problem.isUnitHeight(), "solveUnitLine requires unit heights",
            __FILE__, __LINE__);
  return runFramework<LineAssignment>(problem, options, RaiseRule::Unit);
}

ArbitraryLineResult solveArbitraryLine(const LineProblem& problem,
                                       const SolverOptions& options) {
  return solveArbitrary<LineAssignment>(problem, options);
}

LineSolveResult solvePanconesiSozioUnitLine(const LineProblem& problem,
                                            SolverOptions options) {
  options.schedule = SchedulePolicy::Threshold;
  return solveUnitLine(problem, options);
}

ArbitraryLineResult solvePanconesiSozioArbitraryLine(const LineProblem& problem,
                                                     SolverOptions options) {
  options.schedule = SchedulePolicy::Threshold;
  return solveArbitraryLine(problem, options);
}

}  // namespace treesched
