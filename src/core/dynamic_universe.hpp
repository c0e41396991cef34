// Dynamic demand-instance universe (ROADMAP item 2: incremental universe
// & layering for unbounded demand streams).
//
// `InstanceUniverse` materializes the full pool — every instance any
// demand can ever create — up front; fine for one-shot solves, the main
// obstacle to unbounded online streams. `DynamicUniverse` keeps the same
// *id space* (instance ids, global edge ids and group numbers are
// pool-stable, so surviving instances never renumber and every
// hash-keyed decision is reproducible), but materializes records, edge
// paths, the per-edge instance lists and the layering only for demands
// that are currently live:
//
//   * addDemand(d) expands d's instances with expandDemand
//     (core/universe.hpp), the function the from-scratch builders run
//     over every demand (same records, same paths, same ids), assigns
//     each one its group + critical edges through the pluggable
//     `InstanceLayerer` whose layer() also produces every batch
//     `Layering` (per-instance-local by Lemma 4.2/4.3 and §7), and
//     splices them into the live per-edge lists — O(demand's path
//     length) list insertions, independent of pool size.
//   * retireDemand(d) garbage-collects with the same exactness
//     discipline as raise purging: every per-edge reference is removed
//     (checked, not best-effort), the slab is freed, and a later
//     re-arrival rebuilds bit-identical state.
//
// Conflicts are never stored: instancesConflict and anyConflict
// (core/universe.hpp) derive them from the live per-demand and per-edge
// indexes, so they see live instances only.
//
// The live view equals the from-scratch build restricted to live
// demands — `tests/dynamic_universe_test.cpp` gates that equivalence on
// every scenario preset, per epoch. Heavy per-instance state (records,
// paths, critical edges) tracks live demands; only flat id indexes (a
// few bytes per pool id) stay pool-dense.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/line_problem.hpp"
#include "core/tree_problem.hpp"
#include "core/universe.hpp"

namespace treesched {

/// Cumulative cost accounting of one DynamicUniverse. The online solver
/// publishes the GC counts as `universe.gc_*` metrics; the wall-clock
/// fields stay out of the registry, which reproduces bit for bit.
/// `bench_online` derives its `universe_build_ms` /
/// `mean_extend_us_per_arrival` columns from them.
struct UniverseStats {
  double buildMs = 0;            ///< one-time pool build (layerer + indexes)
  std::int64_t arrivals = 0;     ///< addDemand calls
  std::int64_t extendUs = 0;     ///< cumulative addDemand wall time (µs)
  std::int64_t gcDemands = 0;    ///< retireDemand calls
  std::int64_t gcInstances = 0;  ///< instances garbage-collected
  std::int64_t gcUs = 0;         ///< cumulative retireDemand wall time (µs)
};

/// Per-instance group + critical-edge assignment (the paper's layered
/// decomposition, §4.4 and §7), evaluated one instance at a time.
/// Implementations own the persistent per-network structures (tree
/// decompositions and pivot sets, pool length range) so that layer()
/// depends only on the instance itself — the locality that makes
/// layering maintenance O(arrival). numGroups() and
/// poolMaxCriticalSize() are pool constants, taken over every instance
/// the pool can ever contain: group numbering and the protocol's stage
/// plan never shift as demands come and go.
class InstanceLayerer {
 public:
  virtual ~InstanceLayerer() = default;

  virtual std::int32_t numGroups() const = 0;

  /// Delta = max |pi(d)| over the whole pool, by one pass over it. Only
  /// DynamicUniverse pays for the pass; the batch builders measure Delta
  /// as they layer every instance.
  virtual std::int32_t poolMaxCriticalSize() const = 0;

  /// Returns rec's group and fills `critical` (empty on entry) with its
  /// critical edges pi(d), sorted and duplicate-free.
  virtual std::int32_t layer(const InstanceRecord& rec,
                             std::vector<GlobalEdgeId>& critical) const = 0;
};

class DynamicUniverse;

/// Structural view adapting a DynamicUniverse to the `Layering` shape
/// the templated protocol engine consumes (`numGroups`,
/// `maxCriticalSize`, `group[i]`, `critical(i)`) without materializing
/// pool-sized arrays. Obtained from DynamicUniverse::layeringView();
/// valid as long as the universe outlives it.
struct DynamicLayeringView {
  /// Indexing proxy so `view.group[i]` reads like `Layering::group[i]`.
  struct GroupIndex {
    const DynamicUniverse* universe = nullptr;
    std::int32_t operator[](std::size_t i) const;
  };

  std::int32_t numGroups = 0;
  std::int32_t maxCriticalSize = 0;
  GroupIndex group;

  std::span<const GlobalEdgeId> critical(InstanceId i) const;
};

/// The incrementally-maintained universe. Pool-level constants (id
/// space, global edge index, profit range, layering constants) are
/// fixed at construction from the problem; per-demand state exists only
/// between addDemand(d) and retireDemand(d). Query methods follow
/// `InstanceUniverse` exactly — templated framework/protocol code runs
/// on either — with live-restricted semantics: instance(i)/path(i)
/// require i live, instancesOfDemand(d) is empty for non-live d, and
/// instancesOnEdge enumerates live instances only (so anyConflict does
/// too).
class DynamicUniverse {
 public:
  using Kind = InstanceUniverse::Kind;

  /// `layerer` layers `*problem`'s instances and may refer to it; the
  /// universe keeps `problem` alive for as long as it owns the layerer.
  DynamicUniverse(std::shared_ptr<const TreeProblem> problem,
                  std::unique_ptr<InstanceLayerer> layerer);
  DynamicUniverse(std::shared_ptr<const LineProblem> problem,
                  std::unique_ptr<InstanceLayerer> layerer);

  // ---- Pool-level constants (match the from-scratch universe) ----

  Kind kind() const { return kind_; }
  /// Pool id-space size — NOT the live count. Dense per-instance arrays
  /// (dual lhs, MIS status) and WarmStart::priorLhs are sized by this.
  std::int32_t numInstances() const { return numInstances_; }
  std::int32_t numDemands() const { return numDemands_; }
  std::int32_t numNetworks() const { return numNetworks_; }
  std::int32_t numGlobalEdges() const { return numGlobalEdges_; }
  GlobalEdgeId globalEdge(TreeId network, EdgeId e) const;
  double profitMax() const { return profitMax_; }
  double profitMin() const { return profitMin_; }
  std::int32_t lineSlots() const;

  /// Accessibility lists of the underlying problem (TreeIds or
  /// ResourceIds — both are the network axis of the universe).
  const std::vector<std::vector<std::int32_t>>& access() const;

  const TreeProblem& treeProblem() const;
  const LineProblem& lineProblem() const;

  /// Pool instance count of demand d (live or not): how many instances
  /// addDemand(d) materializes.
  std::int32_t poolInstanceCount(DemandId d) const;

  // ---- Live mutation ----

  /// Materializes demand d's instances, layers them and splices them
  /// into the live per-edge lists. Proportional to the demand's own
  /// paths and the lists they touch, independent of pool size. d must
  /// not be live.
  void addDemand(DemandId d);

  /// Garbage-collects demand d: every per-edge reference is removed
  /// (checked) and the slab is freed. d must be live.
  void retireDemand(DemandId d);

  bool isLive(DemandId d) const;
  std::int32_t numLiveDemands() const { return numLiveDemands_; }
  std::int32_t numLiveInstances() const { return numLiveInstances_; }

  // ---- Live queries (InstanceUniverse-shaped) ----

  /// Record of live instance i (throws when i's demand is not live).
  const InstanceRecord& instance(InstanceId i) const;

  std::span<const GlobalEdgeId> path(InstanceId i) const;

  /// Live instances of demand d, ascending; empty when d is not live.
  /// A live demand always exposes its full pool id range.
  std::span<const InstanceId> instancesOfDemand(DemandId d) const;

  /// Live instances whose path contains edge e, ascending.
  std::span<const InstanceId> instancesOnEdge(GlobalEdgeId e) const;

  bool overlapping(InstanceId a, InstanceId b) const;
  bool conflicting(InstanceId a, InstanceId b) const;

  // ---- Layering ----

  std::int32_t groupOf(InstanceId i) const;
  std::span<const GlobalEdgeId> critical(InstanceId i) const;
  std::int32_t numGroups() const { return layerer_->numGroups(); }
  std::int32_t maxCriticalSize() const { return maxCriticalSize_; }
  DynamicLayeringView layeringView() const;

  // ---- Cost accounting ----

  const UniverseStats& stats() const { return stats_; }
  /// Factories record the full pool-build time (decompositions +
  /// universe indexes) here once, right after construction.
  void setBuildMs(double ms) { stats_.buildMs = ms; }

 private:
  /// Everything materialized for one live demand. Freed whole on
  /// retireDemand — steady-state memory tracks live demands.
  struct DemandSlab {
    std::vector<InstanceRecord> records;      ///< pool ids, pool order
    std::vector<GlobalEdgeId> pathPool;       ///< records index into this
    std::vector<std::int32_t> group;          ///< per local instance
    std::vector<std::int32_t> criticalOffset;  ///< local CSR
    std::vector<GlobalEdgeId> criticalPool;
  };

  /// Validates the problem and fixes every pool-level constant.
  template <class Problem>
  void buildPoolIndexes(const Problem& problem);
  const DemandSlab& slabOf(InstanceId i, DemandId& demand,
                           std::int32_t& local) const;

  Kind kind_ = Kind::Tree;
  std::shared_ptr<const TreeProblem> tree_;
  std::shared_ptr<const LineProblem> line_;
  std::unique_ptr<InstanceLayerer> layerer_;

  std::int32_t numDemands_ = 0;
  std::int32_t numNetworks_ = 0;
  std::int32_t numGlobalEdges_ = 0;
  std::int32_t numInstances_ = 0;
  std::int32_t lineSlots_ = 0;
  std::int32_t maxCriticalSize_ = 0;
  double profitMax_ = 1.0;
  double profitMin_ = 1.0;
  std::vector<std::int32_t> edgeOffset_;  ///< per network, into global edges

  // Pool-dense id indexes (4 bytes per pool id each): the stable-id
  // lookup tables. Everything heavier lives in per-demand slabs.
  std::vector<std::int32_t> instanceOffset_;  ///< demand -> pool id range
  std::vector<InstanceId> idPool_;            ///< iota; demand spans of it
  std::vector<DemandId> demandOf_;            ///< instance -> demand

  std::vector<std::unique_ptr<DemandSlab>> slabs_;  ///< null = not live
  /// Live instances per global edge, sorted ascending.
  std::vector<std::vector<InstanceId>> edgeLive_;

  std::int32_t numLiveDemands_ = 0;
  std::int32_t numLiveInstances_ = 0;
  UniverseStats stats_;
};

inline std::int32_t DynamicLayeringView::GroupIndex::operator[](
    std::size_t i) const {
  return universe->groupOf(static_cast<InstanceId>(i));
}

inline std::span<const GlobalEdgeId> DynamicLayeringView::critical(
    InstanceId i) const {
  return group.universe->critical(i);
}

inline DynamicLayeringView DynamicUniverse::layeringView() const {
  DynamicLayeringView view;
  view.numGroups = numGroups();
  view.maxCriticalSize = maxCriticalSize();
  view.group.universe = this;
  return view;
}

}  // namespace treesched
