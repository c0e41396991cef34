#include "algo/sequential_tree.hpp"

#include <algorithm>

#include "core/solution.hpp"
#include "core/universe.hpp"
#include "decomp/tree_decomposition.hpp"
#include "framework/lhs_tracker.hpp"
#include "framework/two_phase.hpp"
#include "util/check.hpp"

namespace treesched {

SequentialTreeResult solveSequentialTree(const TreeProblem& problem) {
  checkThat(problem.isUnitHeight(),
            "sequential algorithm requires unit heights", __FILE__, __LINE__);
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  const bool singleNetwork = problem.numNetworks() == 1;

  // Root-fixing decomposition per network; order sigma(T): descending
  // capture depth, ties by instance id.
  std::vector<TreeDecomposition> decomps;
  decomps.reserve(static_cast<std::size_t>(problem.numNetworks()));
  for (TreeId t = 0; t < problem.numNetworks(); ++t) {
    decomps.push_back(
        rootFixingDecomposition(problem.networks[static_cast<std::size_t>(t)]));
  }

  struct Entry {
    InstanceId instance;
    std::int32_t captureDepth;
    VertexId mu;
  };
  std::vector<std::vector<Entry>> perNetwork(
      static_cast<std::size_t>(problem.numNetworks()));
  for (InstanceId i = 0; i < universe.numInstances(); ++i) {
    const InstanceRecord& rec = universe.instance(i);
    const TreeNetwork& tree =
        problem.networks[static_cast<std::size_t>(rec.network)];
    const TreeDecomposition& h = decomps[static_cast<std::size_t>(rec.network)];
    const VertexId mu = captureNode(tree, h, rec.u, rec.v);
    perNetwork[static_cast<std::size_t>(rec.network)].push_back(
        {i, h.depth[static_cast<std::size_t>(mu)], mu});
  }
  for (auto& entries : perNetwork) {
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
      if (a.captureDepth != b.captureDepth) {
        return a.captureDepth > b.captureDepth;  // deepest captures first
      }
      return a.instance < b.instance;
    });
  }

  DualState dual(universe);
  LhsTracker lhs(universe, RaiseRule::Unit);
  // One stack set per raise: the sequential order is the push order.
  std::vector<std::vector<InstanceId>> stack;
  SequentialTreeResult result;

  // Phase 1: networks in rounds; within a network, raising an instance
  // never unsatisfies an earlier one (lhs values only grow), so one pass in
  // sigma order implements the pseudocode's earliest-unsatisfied loop.
  for (TreeId t = 0; t < problem.numNetworks(); ++t) {
    const TreeNetwork& tree = problem.networks[static_cast<std::size_t>(t)];
    for (const Entry& entry : perNetwork[static_cast<std::size_t>(t)]) {
      const InstanceRecord& rec = universe.instance(entry.instance);
      const double slack = rec.profit - lhs.lhs(entry.instance);
      if (slack <= 1e-12 * rec.profit) continue;  // already satisfied

      // pi(d) = wings of mu(d) on path(d).
      GlobalEdgeId wings[2];
      std::int32_t numWings = 0;
      if (entry.mu != rec.u) {
        wings[numWings++] = universe.globalEdge(
            t, tree.edgeBetween(entry.mu, tree.stepToward(entry.mu, rec.u)));
      }
      if (entry.mu != rec.v) {
        wings[numWings++] = universe.globalEdge(
            t, tree.edgeBetween(entry.mu, tree.stepToward(entry.mu, rec.v)));
      }
      checkThat(numWings >= 1, "capture node has a wing", __FILE__, __LINE__);
      result.delta = std::max(result.delta, numWings);

      // Raise. With a single network the alpha variables are unnecessary
      // (|Inst(a)| = 1) and dropping them improves the ratio to 2.
      const double denom =
          static_cast<double>(numWings) + (singleNetwork ? 0.0 : 1.0);
      const double deltaAmount = slack / denom;
      RaiseAmounts amounts;
      amounts.alphaIncrement = singleNetwork ? 0.0 : deltaAmount;
      amounts.betaIncrement = deltaAmount;
      const std::span<const GlobalEdgeId> wingSpan(
          wings, static_cast<std::size_t>(numWings));
      applyRaise(dual, universe, entry.instance, wingSpan, amounts);
      lhs.onRaise(entry.instance, wingSpan, amounts);
      stack.push_back({entry.instance});
      ++result.iterations;
    }
  }

  result.dualUpperBound = dual.objective();

  // Phase 2: pop in reverse, greedy feasibility.
  const FeasibilityOracle oracle = popStack(universe, stack);
  for (const InstanceId i : oracle.solution().instances) {
    const InstanceRecord& rec = universe.instance(i);
    result.assignments.push_back({rec.demand, rec.network});
  }
  std::sort(result.assignments.begin(), result.assignments.end(),
            [](const TreeAssignment& a, const TreeAssignment& b) {
              return a.demand < b.demand;
            });
  result.profit = oracle.profit();
  result.certifiedBound = singleNetwork ? 2.0 : 3.0;

  const std::string err = checkAssignments(problem, result.assignments);
  checkThat(err.empty(), "sequential solution feasible: " + err, __FILE__,
            __LINE__);
  return result;
}

}  // namespace treesched
