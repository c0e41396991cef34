// Demand-instance universe (paper §2 reformulation).
//
// For each demand a and each network T in Acc(owner(a)) the paper creates a
// *demand instance* — a copy of the demand pinned to T (for line networks
// with windows, additionally pinned to one execution segment, §7). This
// class materializes the full instance set D with:
//   * a global edge index space across all networks (dual variables beta
//     live on it);
//   * per-instance edge paths;
//   * instances indexed by demand and by global edge.
// The conflict relation (same demand, or same network + shared edge) is
// never stored: instancesConflict decides one pair and anyConflict
// enumerates one instance's conflicts from the two indexes above.
// The primal-dual framework and the distributed simulator operate purely on
// this structure; tree-vs-line differences are confined to expandDemand.
// `DynamicUniverse` (core/dynamic_universe.hpp) grows the same records one
// demand at a time through the same expandDemand and overlap rule.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/demand.hpp"
#include "core/line_problem.hpp"
#include "core/tree_problem.hpp"

namespace treesched {

/// One demand instance: the demand's data plus the network it is pinned to
/// and its edge path on that network.
struct InstanceRecord {
  InstanceId id = kNoInstance;
  DemandId demand = 0;
  TreeId network = 0;  ///< TreeId or ResourceId depending on universe kind.
  /// Endpoints. Tree universes: the demand's vertices. Line universes:
  /// u = first slot, v = last slot of the execution segment.
  VertexId u = 0;
  VertexId v = 0;
  double profit = 1.0;
  double height = 1.0;
  std::int32_t pathBegin = 0;  ///< [pathBegin, pathEnd) into the path pool.
  std::int32_t pathEnd = 0;

  std::int32_t pathLength() const { return pathEnd - pathBegin; }
};

/// Global edge index of a problem's networks: network t owns global edges
/// [offsets[t], offsets[t + 1]); the last entry is the global edge count.
std::vector<std::int32_t> networkEdgeOffsets(const TreeProblem& problem);
std::vector<std::int32_t> networkEdgeOffsets(const LineProblem& problem);

/// Appends demand d's instances, one per accessible network, to `records`
/// with ids firstId, firstId + 1, ..., and their global-edge paths (in path
/// order) to `pathPool`, which the records index into. `edgeOffset` is
/// networkEdgeOffsets(problem).
void expandDemand(const TreeProblem& problem, DemandId d,
                  const std::vector<std::int32_t>& edgeOffset,
                  InstanceId firstId, std::vector<InstanceRecord>& records,
                  std::vector<GlobalEdgeId>& pathPool);

/// Line counterpart: one instance per (accessible resource, admissible start
/// slot), in that order; the path is the execution segment's slots.
void expandDemand(const LineProblem& problem, DemandId d,
                  const std::vector<std::int32_t>& edgeOffset,
                  InstanceId firstId, std::vector<InstanceRecord>& records,
                  std::vector<GlobalEdgeId>& pathPool);

class InstanceUniverse {
 public:
  enum class Kind { Tree, Line };

  /// Enumerates instances of a tree problem: one per (demand, accessible
  /// network). `problem.validate()` is called first.
  static InstanceUniverse fromTreeProblem(const TreeProblem& problem);

  /// Enumerates instances of a line problem: one per (demand, accessible
  /// resource, admissible start slot). `problem.validate()` is called first.
  static InstanceUniverse fromLineProblem(const LineProblem& problem);

  Kind kind() const { return kind_; }
  std::int32_t numInstances() const {
    return static_cast<std::int32_t>(instances_.size());
  }
  std::int32_t numDemands() const { return numDemands_; }
  std::int32_t numNetworks() const { return numNetworks_; }
  std::int32_t numGlobalEdges() const { return numGlobalEdges_; }

  const InstanceRecord& instance(InstanceId i) const;

  /// Edge path of instance `i` as global edge ids, in path order.
  std::span<const GlobalEdgeId> path(InstanceId i) const;

  /// All instances of one demand (ascending instance id).
  std::span<const InstanceId> instancesOfDemand(DemandId d) const;

  /// Maps (network, local edge) to the global edge index.
  GlobalEdgeId globalEdge(TreeId network, EdgeId e) const;

  /// All instances whose path contains global edge `e` (ascending id).
  std::span<const InstanceId> instancesOnEdge(GlobalEdgeId e) const;

  /// True iff a and b are on the same network and share an edge (§2
  /// "overlapping").
  bool overlapping(InstanceId a, InstanceId b) const;

  /// True iff a and b overlap or belong to the same demand (§2
  /// "conflicting"); a pair is schedulable together iff NOT conflicting.
  bool conflicting(InstanceId a, InstanceId b) const;

  double profitMax() const { return profitMax_; }
  double profitMin() const { return profitMin_; }

  /// Line universes only: number of timeslots.
  std::int32_t lineSlots() const;

 private:
  InstanceUniverse() = default;

  /// Validates `problem`, expands every demand, then finalize()s.
  template <class Problem>
  void expandAll(const Problem& problem);
  void finalize();  // builds demand and edge indexes + profit range

  Kind kind_ = Kind::Tree;
  std::int32_t numDemands_ = 0;
  std::int32_t numNetworks_ = 0;
  std::int32_t numGlobalEdges_ = 0;
  std::int32_t lineSlots_ = 0;
  std::vector<std::int32_t> edgeOffset_;  ///< per network, into global edges
  std::vector<InstanceRecord> instances_;
  std::vector<GlobalEdgeId> pathPool_;

  // CSR: instances grouped by demand.
  std::vector<std::int32_t> demandOffset_;
  std::vector<InstanceId> demandInstances_;

  // CSR: instances grouped by global edge.
  std::vector<std::int32_t> edgeInstOffset_;
  std::vector<InstanceId> edgeInstances_;

  double profitMax_ = 1.0;
  double profitMin_ = 1.0;
};

/// §2 "overlapping" over either universe (InstanceUniverse or
/// DynamicUniverse): a and b are on the same network and share an edge.
template <class Universe>
bool instancesOverlap(const Universe& universe, InstanceId a, InstanceId b) {
  const InstanceRecord& ra = universe.instance(a);
  const InstanceRecord& rb = universe.instance(b);
  if (ra.network != rb.network) return false;
  // Line paths are contiguous slot ranges, so compare ranges directly.
  if (universe.kind() == InstanceUniverse::Kind::Line) {
    return ra.u <= rb.v && rb.u <= ra.v;
  }
  // Scan the shorter path against a membership test on the longer one.
  const auto pa = universe.path(a);
  const auto pb = universe.path(b);
  const auto& shorter = pa.size() <= pb.size() ? pa : pb;
  const auto& longer = pa.size() <= pb.size() ? pb : pa;
  return std::any_of(shorter.begin(), shorter.end(), [&](GlobalEdgeId e) {
    return std::find(longer.begin(), longer.end(), e) != longer.end();
  });
}

/// §2 "conflicting": a != b and they overlap or belong to the same demand.
template <class Universe>
bool instancesConflict(const Universe& universe, InstanceId a, InstanceId b) {
  if (a == b) return false;
  if (universe.instance(a).demand == universe.instance(b).demand) return true;
  return instancesOverlap(universe, a, b);
}

/// Visits the instances conflicting with i: the other instances of i's
/// demand, then every instance on each edge of i's path. A w may be
/// visited more than once, i never. Returns true at the first w where
/// pred(w) holds, false when there is none.
template <class Universe, class Pred>
bool anyConflict(const Universe& universe, InstanceId i, Pred pred) {
  const DemandId d = universe.instance(i).demand;
  for (const InstanceId w : universe.instancesOfDemand(d)) {
    if (w != i && pred(w)) return true;
  }
  for (const GlobalEdgeId e : universe.path(i)) {
    for (const InstanceId w : universe.instancesOnEdge(e)) {
      if (w != i && pred(w)) return true;
    }
  }
  return false;
}

}  // namespace treesched
