// Layered decompositions (paper §4.4 and §7).
//
// A layered decomposition of the instance set D assigns every instance a
// group index (groups are processed first-to-last by the framework's
// epochs) and a set of *critical edges* pi(d) on its path, such that the
// interference property holds: whenever d1 and d2 overlap and d1's group
// is <= d2's group, path(d2) contains a critical edge of d1.
//
//  * Trees (Lemma 4.2/4.3): built from a tree decomposition H. The group
//    of d is determined by the H-depth of its capture node mu(d) (deepest
//    captures first); pi(d) consists of the wings of mu(d) on path(d) plus
//    the wings of the bending points of path(d) with respect to each pivot
//    of C(mu(d)). |pi(d)| <= 2*(theta+1), i.e. Delta = 6 for the ideal
//    decomposition.
//  * Lines (§7): groups by demand-instance length (factor-2 buckets,
//    shortest first); pi(d) = {start, mid, end} slots, Delta = 3. This is
//    the decomposition implicit in Panconesi-Sozio.
//
// Both rules are per-instance-local, so each lives in one InstanceLayerer
// (TreeInstanceLayerer, LineInstanceLayerer): the batch builders run every
// instance of an InstanceUniverse through layer(), and DynamicUniverse runs
// each arriving demand's instances through the same layer().
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dynamic_universe.hpp"
#include "core/universe.hpp"
#include "decomp/tree_decomposition.hpp"

namespace treesched {

/// Group assignment + critical edges for every instance of a universe.
struct Layering {
  std::int32_t numGroups = 0;
  /// group[i] in [0, numGroups); group 0 is processed first (epoch 1).
  std::vector<std::int32_t> group;
  /// CSR of critical edges per instance (global edge ids, sorted).
  std::vector<std::int32_t> criticalOffset;
  std::vector<GlobalEdgeId> criticalPool;
  /// Measured critical-set size Delta = max |pi(d)|.
  std::int32_t maxCriticalSize = 0;

  std::span<const GlobalEdgeId> critical(InstanceId i) const {
    const auto begin = criticalOffset[static_cast<std::size_t>(i)];
    const auto end = criticalOffset[static_cast<std::size_t>(i) + 1];
    return {criticalPool.data() + begin, static_cast<std::size_t>(end - begin)};
  }
};

/// Builds the layered decomposition of a tree universe via per-network
/// tree decompositions of the given kind (Lemma 4.2). With
/// DecompositionKind::Ideal this realizes Lemma 4.3: Delta <= 6 and
/// numGroups <= 2*ceil(lg n)+1.
Layering buildTreeLayering(const TreeProblem& problem,
                           const InstanceUniverse& universe,
                           DecompositionKind kind = DecompositionKind::Ideal);

/// Builds the §7 length-based layering of a line universe: Delta <= 3 and
/// numGroups <= ceil(lg(Lmax/Lmin)) + 1.
Layering buildLineLayering(const LineProblem& problem,
                           const InstanceUniverse& universe);

/// Exhaustive check of the interference property over all overlapping
/// pairs (O(|D|^2 * pathlen); for tests). Empty string when valid.
std::string checkLayering(const InstanceUniverse& universe,
                          const Layering& layering);

/// Tree layering (Lemma 4.2/4.3), one instance at a time: the
/// per-network decompositions and pivot sets are built once; layer()
/// then assigns any single instance its group + critical edges from its
/// own path alone. numGroups (max decomposition depth over all networks)
/// is a pool constant, so group numbering is stable under churn.
/// `problem` must outlive the layerer.
class TreeInstanceLayerer final : public InstanceLayerer {
 public:
  explicit TreeInstanceLayerer(const TreeProblem& problem,
                               DecompositionKind kind =
                                   DecompositionKind::Ideal);

  std::int32_t numGroups() const override { return numGroups_; }
  std::int32_t poolMaxCriticalSize() const override;
  std::int32_t layer(const InstanceRecord& rec,
                     std::vector<GlobalEdgeId>& critical) const override;

 private:
  const TreeProblem& problem_;
  std::vector<TreeDecomposition> decompositions_;
  std::vector<std::vector<std::vector<VertexId>>> pivotSets_;
  std::vector<std::int32_t> localMaxDepth_;  ///< cached per network
  std::vector<std::int32_t> edgeOffset_;
  std::int32_t numGroups_ = 0;
};

/// §7 line layering, one instance at a time: factor-2 length buckets
/// against the pool-wide minimum length (a pool constant, so groups never
/// renumber) and the {start, mid, end} critical slots. `problem` must
/// outlive the layerer.
class LineInstanceLayerer final : public InstanceLayerer {
 public:
  explicit LineInstanceLayerer(const LineProblem& problem);

  std::int32_t numGroups() const override { return numGroups_; }
  std::int32_t poolMaxCriticalSize() const override;
  std::int32_t layer(const InstanceRecord& rec,
                     std::vector<GlobalEdgeId>& critical) const override;

 private:
  const LineProblem& problem_;
  std::int32_t minLen_ = 1;  ///< pool-wide minimum instance length
  std::int32_t numGroups_ = 0;
};

/// Builds a DynamicUniverse over a tree problem with its layerer (ideal
/// decompositions); stats().buildMs covers the full pool build
/// (decompositions, pivot sets, pool indexes, the Delta pass). The
/// shared_ptr overloads avoid copying the problem.
DynamicUniverse makeDynamicTreeUniverse(
    std::shared_ptr<const TreeProblem> problem);
DynamicUniverse makeDynamicTreeUniverse(const TreeProblem& problem);

/// Line counterpart of makeDynamicTreeUniverse.
DynamicUniverse makeDynamicLineUniverse(
    std::shared_ptr<const LineProblem> problem);
DynamicUniverse makeDynamicLineUniverse(const LineProblem& problem);

}  // namespace treesched
