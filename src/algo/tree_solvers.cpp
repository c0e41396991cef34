#include "algo/tree_solvers.hpp"

#include <algorithm>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "util/check.hpp"

namespace treesched {

FrameworkConfig toFrameworkConfig(const SolverOptions& options, RaiseRule rule,
                                  double derivedHmin) {
  FrameworkConfig cfg;
  cfg.epsilon = options.epsilon;
  cfg.rule = rule;
  cfg.schedule = options.schedule;
  cfg.hmin = options.hmin > 0 ? options.hmin : derivedHmin;
  cfg.seed = options.seed;
  cfg.misRoundBudget = options.misRoundBudget;
  cfg.fixedSchedule = options.fixedSchedule;
  cfg.stepsPerStage = options.stepsPerStage;
  return cfg;
}

namespace {

std::vector<TreeAssignment> toAssignments(const InstanceUniverse& universe,
                                          const Solution& solution) {
  std::vector<TreeAssignment> result;
  result.reserve(solution.instances.size());
  for (const InstanceId i : solution.instances) {
    const InstanceRecord& rec = universe.instance(i);
    result.push_back({rec.demand, rec.network});
  }
  std::sort(result.begin(), result.end(),
            [](const TreeAssignment& a, const TreeAssignment& b) {
              return a.demand < b.demand;
            });
  return result;
}

/// Splits `problem` to the demands selected by `keep`; fills old-id map.
TreeProblem subProblem(const TreeProblem& problem,
                       const std::vector<DemandId>& keep) {
  TreeProblem sub;
  sub.numVertices = problem.numVertices;
  sub.networks = problem.networks;
  sub.demands.reserve(keep.size());
  sub.access.reserve(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    Demand d = problem.demands[static_cast<std::size_t>(keep[i])];
    d.id = static_cast<DemandId>(i);
    sub.demands.push_back(d);
    sub.access.push_back(problem.access[static_cast<std::size_t>(keep[i])]);
  }
  return sub;
}

}  // namespace

TreeSolveResult runTreeFramework(const TreeProblem& problem,
                                 const SolverOptions& options, RaiseRule rule) {
  const InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const Layering layering =
      buildTreeLayering(problem, universe, options.decomposition);

  double derivedHmin = 1.0;
  for (const Demand& d : problem.demands) {
    derivedHmin = std::min(derivedHmin, d.height);
  }
  const FrameworkConfig cfg = toFrameworkConfig(options, rule, derivedHmin);
  const TwoPhaseResult run = runTwoPhase(universe, layering, cfg);

  TreeSolveResult result;
  result.assignments = toAssignments(universe, run.solution);
  result.profit = run.profit;
  result.dualUpperBound = run.dualUpperBound;
  result.certifiedBound =
      approximationBound(rule, run.stats.delta, run.stats.lambdaTarget);
  result.stats = run.stats;

  const std::string err = checkAssignments(problem, result.assignments);
  checkThat(err.empty(), "solver produced feasible assignments: " + err,
            __FILE__, __LINE__);
  return result;
}

TreeSolveResult solveUnitTree(const TreeProblem& problem,
                              const SolverOptions& options) {
  checkThat(problem.isUnitHeight(), "solveUnitTree requires unit heights",
            __FILE__, __LINE__);
  return runTreeFramework(problem, options, RaiseRule::Unit);
}

ArbitraryTreeResult solveArbitraryTree(const TreeProblem& problem,
                                       const SolverOptions& options) {
  problem.validate();
  std::vector<DemandId> wide;
  std::vector<DemandId> narrow;
  for (const Demand& d : problem.demands) {
    (isNarrow(d.height) ? narrow : wide).push_back(d.id);
  }

  ArbitraryTreeResult result;
  std::vector<TreeAssignment> wideAssign;
  std::vector<TreeAssignment> narrowAssign;

  if (!wide.empty()) {
    // Two overlapping wide instances can never coexist, so the unit-height
    // algorithm applies verbatim (§6 "Overall Algorithm").
    const TreeProblem sub = subProblem(problem, wide);
    TreeSolveResult run = runTreeFramework(sub, options, RaiseRule::Unit);
    for (TreeAssignment a : run.assignments) {
      a.demand = wide[static_cast<std::size_t>(a.demand)];
      wideAssign.push_back(a);
    }
    result.wideStats = run.stats;
    result.dualUpperBound += run.dualUpperBound;
    result.wideProfit = run.profit;
  }
  if (!narrow.empty()) {
    const TreeProblem sub = subProblem(problem, narrow);
    TreeSolveResult run = runTreeFramework(sub, options, RaiseRule::Narrow);
    for (TreeAssignment a : run.assignments) {
      a.demand = narrow[static_cast<std::size_t>(a.demand)];
      narrowAssign.push_back(a);
    }
    result.narrowStats = run.stats;
    result.dualUpperBound += run.dualUpperBound;
    result.narrowProfit = run.profit;
  }

  // Per-network combine: keep whichever of the two solutions earns more on
  // each network. Feasible because a demand is wide xor narrow and each
  // sub-solution is feasible per network on its own.
  std::vector<double> wideByNet(static_cast<std::size_t>(problem.numNetworks()),
                                0.0);
  std::vector<double> narrowByNet(
      static_cast<std::size_t>(problem.numNetworks()), 0.0);
  for (const TreeAssignment& a : wideAssign) {
    wideByNet[static_cast<std::size_t>(a.network)] +=
        problem.demands[static_cast<std::size_t>(a.demand)].profit;
  }
  for (const TreeAssignment& a : narrowAssign) {
    narrowByNet[static_cast<std::size_t>(a.network)] +=
        problem.demands[static_cast<std::size_t>(a.demand)].profit;
  }
  for (const TreeAssignment& a : wideAssign) {
    if (wideByNet[static_cast<std::size_t>(a.network)] >=
        narrowByNet[static_cast<std::size_t>(a.network)]) {
      result.assignments.push_back(a);
    }
  }
  for (const TreeAssignment& a : narrowAssign) {
    if (wideByNet[static_cast<std::size_t>(a.network)] <
        narrowByNet[static_cast<std::size_t>(a.network)]) {
      result.assignments.push_back(a);
    }
  }
  result.profit = assignmentProfit(problem, result.assignments);

  // Certified factor: p(Opt) <= p(Opt_wide) + p(Opt_narrow)
  //   <= 7/(1-eps) p(S1) + 73/(1-eps) p(S2) <= 80/(1-eps) p(S)
  // since p(S) >= max(p(S1), p(S2)) after the per-network combine.
  result.certifiedBound =
      approximationBound(RaiseRule::Unit, 6, 1.0 - options.epsilon) +
      approximationBound(RaiseRule::Narrow, 6, 1.0 - options.epsilon);
  const std::string err = checkAssignments(problem, result.assignments);
  checkThat(err.empty(), "combined solution feasible: " + err, __FILE__,
            __LINE__);
  return result;
}

}  // namespace treesched
