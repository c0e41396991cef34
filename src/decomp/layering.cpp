#include "decomp/layering.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "util/check.hpp"

namespace treesched {

namespace {

/// Appends the wings of vertex y on the path u--v of `tree` (the path
/// edges adjacent to y, §4.4) as global edge ids with the given network
/// base offset. y must lie on the path.
void appendWingEdges(const TreeNetwork& tree, GlobalEdgeId base, VertexId y,
                     VertexId u, VertexId v, std::vector<GlobalEdgeId>& out) {
  if (y != u) {
    const EdgeId e = tree.edgeBetween(y, tree.stepToward(y, u));
    checkThat(e != kNoEdge, "wing toward u exists", __FILE__, __LINE__);
    out.push_back(base + e);
  }
  if (y != v) {
    const EdgeId e = tree.edgeBetween(y, tree.stepToward(y, v));
    checkThat(e != kNoEdge, "wing toward v exists", __FILE__, __LINE__);
    out.push_back(base + e);
  }
}

double millisSince(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count()) /
         1000.0;
}

/// Runs every instance of `universe` through `layerer`, measuring Delta
/// as it goes.
Layering layerEveryInstance(const InstanceUniverse& universe,
                            const InstanceLayerer& layerer) {
  Layering lay;
  lay.numGroups = layerer.numGroups();
  const std::int32_t numInst = universe.numInstances();
  lay.group.resize(static_cast<std::size_t>(numInst));
  lay.criticalOffset.assign(static_cast<std::size_t>(numInst) + 1, 0);
  std::vector<GlobalEdgeId> buffer;
  for (InstanceId i = 0; i < numInst; ++i) {
    buffer.clear();
    lay.group[static_cast<std::size_t>(i)] =
        layerer.layer(universe.instance(i), buffer);
    lay.criticalPool.insert(lay.criticalPool.end(), buffer.begin(),
                            buffer.end());
    lay.criticalOffset[static_cast<std::size_t>(i) + 1] =
        static_cast<std::int32_t>(lay.criticalPool.size());
    lay.maxCriticalSize = std::max(lay.maxCriticalSize,
                                   static_cast<std::int32_t>(buffer.size()));
  }
  return lay;
}

}  // namespace

Layering buildTreeLayering(const TreeProblem& problem,
                           const InstanceUniverse& universe,
                           DecompositionKind kind) {
  checkThat(universe.kind() == InstanceUniverse::Kind::Tree, "tree universe",
            __FILE__, __LINE__);
  return layerEveryInstance(universe, TreeInstanceLayerer(problem, kind));
}

Layering buildLineLayering(const LineProblem& problem,
                           const InstanceUniverse& universe) {
  checkThat(universe.kind() == InstanceUniverse::Kind::Line, "line universe",
            __FILE__, __LINE__);
  return layerEveryInstance(universe, LineInstanceLayerer(problem));
}

std::string checkLayering(const InstanceUniverse& universe,
                          const Layering& layering) {
  const std::int32_t numInst = universe.numInstances();
  checkThat(static_cast<std::int32_t>(layering.group.size()) == numInst,
            "layering covers universe", __FILE__, __LINE__);
  for (InstanceId d1 = 0; d1 < numInst; ++d1) {
    // Critical edges must lie on the instance's own path.
    const auto p1 = universe.path(d1);
    for (const GlobalEdgeId e : layering.critical(d1)) {
      if (std::find(p1.begin(), p1.end(), e) == p1.end()) {
        std::ostringstream os;
        os << "critical edge " << e << " of instance " << d1
           << " is not on its path";
        return os.str();
      }
    }
    for (InstanceId d2 = 0; d2 < numInst; ++d2) {
      if (d1 == d2) continue;
      if (layering.group[static_cast<std::size_t>(d1)] >
          layering.group[static_cast<std::size_t>(d2)]) {
        continue;
      }
      if (!universe.overlapping(d1, d2)) continue;
      const auto p2 = universe.path(d2);
      bool hit = false;
      for (const GlobalEdgeId e : layering.critical(d1)) {
        if (std::find(p2.begin(), p2.end(), e) != p2.end()) {
          hit = true;
          break;
        }
      }
      if (!hit) {
        std::ostringstream os;
        os << "interference property violated: instance " << d1 << " (group "
           << layering.group[static_cast<std::size_t>(d1)] << ") vs instance "
           << d2 << " (group " << layering.group[static_cast<std::size_t>(d2)]
           << ")";
        return os.str();
      }
    }
  }
  return {};
}

TreeInstanceLayerer::TreeInstanceLayerer(const TreeProblem& problem,
                                         DecompositionKind kind)
    : problem_(problem), edgeOffset_(networkEdgeOffsets(problem)) {
  const std::int32_t numNetworks = problem_.numNetworks();
  decompositions_.reserve(static_cast<std::size_t>(numNetworks));
  pivotSets_.reserve(static_cast<std::size_t>(numNetworks));
  localMaxDepth_.reserve(static_cast<std::size_t>(numNetworks));
  for (const TreeNetwork& tree : problem_.networks) {
    decompositions_.push_back(buildDecomposition(tree, kind));
    pivotSets_.push_back(computePivotSets(tree, decompositions_.back()));
    localMaxDepth_.push_back(decompositions_.back().maxDepth());
    numGroups_ = std::max(numGroups_, localMaxDepth_.back());
  }
}

std::int32_t TreeInstanceLayerer::poolMaxCriticalSize() const {
  std::int32_t delta = 0;
  std::vector<GlobalEdgeId> buffer;
  for (DemandId d = 0; d < problem_.numDemands(); ++d) {
    const Demand& dem = problem_.demands[static_cast<std::size_t>(d)];
    for (const TreeId t : problem_.access[static_cast<std::size_t>(d)]) {
      InstanceRecord rec;
      rec.demand = d;
      rec.network = t;
      rec.u = dem.u;
      rec.v = dem.v;
      buffer.clear();
      layer(rec, buffer);
      delta = std::max(delta, static_cast<std::int32_t>(buffer.size()));
    }
  }
  return delta;
}

std::int32_t TreeInstanceLayerer::layer(
    const InstanceRecord& rec, std::vector<GlobalEdgeId>& critical) const {
  const auto network = static_cast<std::size_t>(rec.network);
  const TreeNetwork& tree = problem_.networks[network];
  const TreeDecomposition& h = decompositions_[network];
  const GlobalEdgeId base = edgeOffset_[network];

  // Group: instances captured deepest go first (the paper's sigma
  // reverses the depth order, §4.4); the group index depends only on
  // mu's depth and the network's own depth range.
  const VertexId mu = captureNode(tree, h, rec.u, rec.v);
  const std::int32_t group =
      localMaxDepth_[network] - h.depth[static_cast<std::size_t>(mu)];

  // Critical edges pi(d): wings of mu, plus wings of the bending point
  // of path(d) with respect to every pivot of C(mu).
  appendWingEdges(tree, base, mu, rec.u, rec.v, critical);
  for (const VertexId w : pivotSets_[network][static_cast<std::size_t>(mu)]) {
    const VertexId bend = tree.meetingPoint(rec.u, rec.v, w);
    appendWingEdges(tree, base, bend, rec.u, rec.v, critical);
  }
  std::sort(critical.begin(), critical.end());
  critical.erase(std::unique(critical.begin(), critical.end()),
                 critical.end());
  return group;
}

LineInstanceLayerer::LineInstanceLayerer(const LineProblem& problem)
    : problem_(problem) {
  // Pool constants: the length range over every demand (an instance's
  // length is its demand's processing time, and a valid demand has at
  // least one instance).
  if (problem_.demands.empty()) return;  // zero groups, layer() never called
  minLen_ = problem_.demands.front().processing;
  std::int32_t maxLen = minLen_;
  for (const WindowDemand& dem : problem_.demands) {
    minLen_ = std::min(minLen_, dem.processing);
    maxLen = std::max(maxLen, dem.processing);
  }
  std::int32_t g = 0;
  while ((static_cast<std::int64_t>(minLen_) << (g + 1)) <= maxLen) ++g;
  numGroups_ = g + 1;
}

std::int32_t LineInstanceLayerer::poolMaxCriticalSize() const {
  // |pi(d)| depends only on the instance's length, so one instance per
  // demand covers the pool.
  std::int32_t delta = 0;
  std::vector<GlobalEdgeId> buffer;
  for (DemandId d = 0; d < problem_.numDemands(); ++d) {
    const WindowDemand& dem = problem_.demands[static_cast<std::size_t>(d)];
    InstanceRecord rec;
    rec.demand = d;
    rec.network = problem_.access[static_cast<std::size_t>(d)].front();
    rec.u = dem.release;
    rec.v = dem.release + dem.processing - 1;
    buffer.clear();
    layer(rec, buffer);
    delta = std::max(delta, static_cast<std::int32_t>(buffer.size()));
  }
  return delta;
}

std::int32_t LineInstanceLayerer::layer(
    const InstanceRecord& rec, std::vector<GlobalEdgeId>& critical) const {
  // Factor-2 length buckets, shortest first: len in
  // [2^g * Lmin, 2^(g+1) * Lmin).
  const std::int32_t len = rec.v - rec.u + 1;
  std::int32_t g = 0;
  while ((static_cast<std::int64_t>(minLen_) << (g + 1)) <= len) ++g;

  // pi(d) = slots {start, mid, end} of the execution segment.
  const GlobalEdgeId base = rec.network * problem_.numSlots;
  const std::int32_t mid = (rec.u + rec.v) / 2;
  critical.push_back(base + rec.u);
  critical.push_back(base + mid);
  critical.push_back(base + rec.v);
  std::sort(critical.begin(), critical.end());
  critical.erase(std::unique(critical.begin(), critical.end()),
                 critical.end());
  return g;
}

DynamicUniverse makeDynamicTreeUniverse(
    std::shared_ptr<const TreeProblem> problem) {
  const auto start = std::chrono::steady_clock::now();
  checkThat(problem != nullptr, "tree problem provided", __FILE__, __LINE__);
  auto layerer = std::make_unique<TreeInstanceLayerer>(*problem);
  DynamicUniverse universe(std::move(problem), std::move(layerer));
  universe.setBuildMs(millisSince(start));
  return universe;
}

DynamicUniverse makeDynamicTreeUniverse(const TreeProblem& problem) {
  return makeDynamicTreeUniverse(std::make_shared<const TreeProblem>(problem));
}

DynamicUniverse makeDynamicLineUniverse(
    std::shared_ptr<const LineProblem> problem) {
  const auto start = std::chrono::steady_clock::now();
  checkThat(problem != nullptr, "line problem provided", __FILE__, __LINE__);
  auto layerer = std::make_unique<LineInstanceLayerer>(*problem);
  DynamicUniverse universe(std::move(problem), std::move(layerer));
  universe.setBuildMs(millisSince(start));
  return universe;
}

DynamicUniverse makeDynamicLineUniverse(const LineProblem& problem) {
  return makeDynamicLineUniverse(std::make_shared<const LineProblem>(problem));
}

}  // namespace treesched
