// Even–Medina–Rosén-style packing baseline adapted to revenue
// (PAPERS.md: "A Constant Approximation Algorithm for Scheduling
// Packets on Line Networks", arXiv:1602.06174).
//
// EMR schedule packets on a line by classifying them into geometric
// classes and running a per-class greedy packing whose decisions depend
// only on local congestion. This module instantiates that recipe for
// the static revenue objective on line and tree networks:
//
//  1. Classify instances into geometric *density classes*: class k
//     holds instances with profit density p / |path| in
//     [dmax / 2^(k+1), dmax / 2^k). Packing per class trades at most a
//     factor 2 of density within the class — the EMR classification
//     argument.
//  2. Within a class, pack in *earliest-endpoint* order (max path
//     endpoint ascending, then id): the classic optimal rule for
//     unweighted interval selection on a line, which is what a class
//     approximates after step 1 flattens the profits.
//  3. Classes are processed densest first against one shared
//     feasibility oracle (edge capacities + one instance per demand),
//     so a sparse class never blocks a dense one.
//
// Fully deterministic, needs no layering and no messages (it is a
// centralized baseline), and returns a feasible solution on any
// universe. No approximation factor is claimed beyond the line
// unit-height setting the EMR analysis targets; on trees it is a
// heuristic comparator — exactly the role it plays in the tournament.
#pragma once

#include <cstdint>
#include <span>

#include "core/solution.hpp"
#include "core/universe.hpp"

namespace treesched {

struct LinePackResult {
  Solution solution;  ///< instance ids, sorted ascending
  double profit = 0;
  std::int32_t densityClasses = 0;  ///< non-empty classes encountered
};

/// Packs the restricted active set (sorted ascending; empty = whole
/// universe). Reads only paths and profits.
LinePackResult emrLinePack(const InstanceUniverse& universe,
                           std::span<const InstanceId> active);

}  // namespace treesched
