#include "core/dynamic_universe.hpp"

#include <algorithm>
#include <chrono>

#include "util/check.hpp"

namespace treesched {

namespace {

std::int64_t microsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// How many instances expandDemand creates for demand d: one per
/// accessible network (trees), times the admissible start slots (lines).
std::int32_t poolInstances(const TreeProblem& problem, DemandId d) {
  return static_cast<std::int32_t>(
      problem.access[static_cast<std::size_t>(d)].size());
}

std::int32_t poolInstances(const LineProblem& problem, DemandId d) {
  const WindowDemand& dem = problem.demands[static_cast<std::size_t>(d)];
  const auto& access = problem.access[static_cast<std::size_t>(d)];
  return static_cast<std::int32_t>(access.size()) *
         std::max(0, dem.deadline - dem.processing - dem.release + 2);
}

/// Inserts `x` into sorted `v`, checking it was absent: every live-index
/// mutation is exact, never best-effort.
void insertSorted(std::vector<InstanceId>& v, InstanceId x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  checkThat(it == v.end() || *it != x, "live id not already indexed", __FILE__,
            __LINE__);
  v.insert(it, x);
}

/// Removes `x` from sorted `v`, checking it was present.
void eraseSorted(std::vector<InstanceId>& v, InstanceId x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  checkThat(it != v.end() && *it == x, "live id present for removal", __FILE__,
            __LINE__);
  v.erase(it);
}

}  // namespace

template <class Problem>
void DynamicUniverse::buildPoolIndexes(const Problem& problem) {
  checkThat(layerer_ != nullptr, "layerer provided", __FILE__, __LINE__);
  problem.validate();
  numDemands_ = problem.numDemands();
  edgeOffset_ = networkEdgeOffsets(problem);
  numNetworks_ = static_cast<std::int32_t>(edgeOffset_.size()) - 1;
  numGlobalEdges_ = edgeOffset_.back();

  instanceOffset_.assign(static_cast<std::size_t>(numDemands_) + 1, 0);
  for (DemandId d = 0; d < numDemands_; ++d) {
    instanceOffset_[static_cast<std::size_t>(d) + 1] =
        instanceOffset_[static_cast<std::size_t>(d)] +
        poolInstances(problem, d);
  }
  numInstances_ = instanceOffset_.back();
  idPool_.resize(static_cast<std::size_t>(numInstances_));
  for (InstanceId i = 0; i < numInstances_; ++i) {
    idPool_[static_cast<std::size_t>(i)] = i;
  }
  demandOf_.resize(static_cast<std::size_t>(numInstances_));
  for (DemandId d = 0; d < numDemands_; ++d) {
    for (std::int32_t i = instanceOffset_[static_cast<std::size_t>(d)];
         i < instanceOffset_[static_cast<std::size_t>(d) + 1]; ++i) {
      demandOf_[static_cast<std::size_t>(i)] = d;
    }
  }
  slabs_.resize(static_cast<std::size_t>(numDemands_));
  edgeLive_.resize(static_cast<std::size_t>(numGlobalEdges_));

  // Profit range over the pool, matching the from-scratch finalize():
  // every demand of a valid problem has instances, all at its profit.
  if (!problem.demands.empty()) {
    profitMax_ = profitMin_ = problem.demands.front().profit;
  }
  for (const auto& dem : problem.demands) {
    profitMax_ = std::max(profitMax_, dem.profit);
    profitMin_ = std::min(profitMin_, dem.profit);
  }

  // Delta is a pool constant too; the layerer measures it only now that
  // the problem is known to be valid.
  maxCriticalSize_ = layerer_->poolMaxCriticalSize();
}

DynamicUniverse::DynamicUniverse(std::shared_ptr<const TreeProblem> problem,
                                 std::unique_ptr<InstanceLayerer> layerer)
    : kind_(Kind::Tree),
      tree_(std::move(problem)),
      layerer_(std::move(layerer)) {
  checkThat(tree_ != nullptr, "tree problem provided", __FILE__, __LINE__);
  buildPoolIndexes(*tree_);
}

DynamicUniverse::DynamicUniverse(std::shared_ptr<const LineProblem> problem,
                                 std::unique_ptr<InstanceLayerer> layerer)
    : kind_(Kind::Line),
      line_(std::move(problem)),
      layerer_(std::move(layerer)) {
  checkThat(line_ != nullptr, "line problem provided", __FILE__, __LINE__);
  lineSlots_ = line_->numSlots;
  buildPoolIndexes(*line_);
}

GlobalEdgeId DynamicUniverse::globalEdge(TreeId network, EdgeId e) const {
  checkIndex(network, numNetworks_, "network id");
  const GlobalEdgeId g = edgeOffset_[static_cast<std::size_t>(network)] + e;
  checkThat(g < edgeOffset_[static_cast<std::size_t>(network) + 1],
            "edge id within network", __FILE__, __LINE__);
  return g;
}

std::int32_t DynamicUniverse::lineSlots() const {
  checkThat(kind_ == Kind::Line, "line universe", __FILE__, __LINE__);
  return lineSlots_;
}

const std::vector<std::vector<std::int32_t>>& DynamicUniverse::access() const {
  return kind_ == Kind::Tree ? tree_->access : line_->access;
}

std::int32_t DynamicUniverse::poolInstanceCount(DemandId d) const {
  checkIndex(d, numDemands_, "demand id");
  return instanceOffset_[static_cast<std::size_t>(d) + 1] -
         instanceOffset_[static_cast<std::size_t>(d)];
}

void DynamicUniverse::addDemand(DemandId d) {
  checkIndex(d, numDemands_, "demand id");
  checkThat(slabs_[static_cast<std::size_t>(d)] == nullptr,
            "demand not already live", __FILE__, __LINE__);
  const auto start = std::chrono::steady_clock::now();
  const InstanceId base = instanceOffset_[static_cast<std::size_t>(d)];
  auto slab = std::make_unique<DemandSlab>();
  if (kind_ == Kind::Tree) {
    expandDemand(*tree_, d, edgeOffset_, base, slab->records, slab->pathPool);
  } else {
    expandDemand(*line_, d, edgeOffset_, base, slab->records, slab->pathPool);
  }
  const std::size_t count = slab->records.size();
  checkThat(static_cast<std::int32_t>(count) == poolInstanceCount(d),
            "expansion matches pool id range", __FILE__, __LINE__);

  // Layering: per-instance-local group + critical edges.
  slab->group.reserve(count);
  slab->criticalOffset.assign(count + 1, 0);
  std::vector<GlobalEdgeId> buffer;
  for (std::size_t local = 0; local < count; ++local) {
    buffer.clear();
    slab->group.push_back(layerer_->layer(slab->records[local], buffer));
    slab->criticalPool.insert(slab->criticalPool.end(), buffer.begin(),
                              buffer.end());
    slab->criticalOffset[local + 1] =
        static_cast<std::int32_t>(slab->criticalPool.size());
  }

  // Splice into the live edge index; conflicts are derived from it.
  for (const InstanceRecord& rec : slab->records) {
    for (std::int32_t p = rec.pathBegin; p < rec.pathEnd; ++p) {
      insertSorted(edgeLive_[static_cast<std::size_t>(slab->pathPool[
                       static_cast<std::size_t>(p)])],
                   rec.id);
    }
  }

  slabs_[static_cast<std::size_t>(d)] = std::move(slab);
  ++numLiveDemands_;
  numLiveInstances_ += static_cast<std::int32_t>(count);
  ++stats_.arrivals;
  stats_.extendUs += microsSince(start);
}

void DynamicUniverse::retireDemand(DemandId d) {
  checkIndex(d, numDemands_, "demand id");
  checkThat(slabs_[static_cast<std::size_t>(d)] != nullptr, "demand live",
            __FILE__, __LINE__);
  const auto start = std::chrono::steady_clock::now();
  DemandSlab& slab = *slabs_[static_cast<std::size_t>(d)];
  const std::size_t count = slab.records.size();
  for (const InstanceRecord& rec : slab.records) {
    for (std::int32_t p = rec.pathBegin; p < rec.pathEnd; ++p) {
      eraseSorted(edgeLive_[static_cast<std::size_t>(
                      slab.pathPool[static_cast<std::size_t>(p)])],
                  rec.id);
    }
  }
  slabs_[static_cast<std::size_t>(d)].reset();
  --numLiveDemands_;
  numLiveInstances_ -= static_cast<std::int32_t>(count);
  ++stats_.gcDemands;
  stats_.gcInstances += static_cast<std::int64_t>(count);
  stats_.gcUs += microsSince(start);
}

bool DynamicUniverse::isLive(DemandId d) const {
  checkIndex(d, numDemands_, "demand id");
  return slabs_[static_cast<std::size_t>(d)] != nullptr;
}

const DynamicUniverse::DemandSlab& DynamicUniverse::slabOf(
    InstanceId i, DemandId& demand, std::int32_t& local) const {
  checkIndex(i, numInstances_, "instance id");
  demand = demandOf_[static_cast<std::size_t>(i)];
  const auto* slab = slabs_[static_cast<std::size_t>(demand)].get();
  checkThat(slab != nullptr, "instance's demand live", __FILE__, __LINE__);
  local = i - instanceOffset_[static_cast<std::size_t>(demand)];
  return *slab;
}

const InstanceRecord& DynamicUniverse::instance(InstanceId i) const {
  DemandId demand = 0;
  std::int32_t local = 0;
  const DemandSlab& slab = slabOf(i, demand, local);
  return slab.records[static_cast<std::size_t>(local)];
}

std::span<const GlobalEdgeId> DynamicUniverse::path(InstanceId i) const {
  DemandId demand = 0;
  std::int32_t local = 0;
  const DemandSlab& slab = slabOf(i, demand, local);
  const InstanceRecord& rec = slab.records[static_cast<std::size_t>(local)];
  return {slab.pathPool.data() + rec.pathBegin,
          static_cast<std::size_t>(rec.pathLength())};
}

std::span<const InstanceId> DynamicUniverse::instancesOfDemand(
    DemandId d) const {
  checkIndex(d, numDemands_, "demand id");
  if (slabs_[static_cast<std::size_t>(d)] == nullptr) return {};
  const auto begin = instanceOffset_[static_cast<std::size_t>(d)];
  const auto end = instanceOffset_[static_cast<std::size_t>(d) + 1];
  return {idPool_.data() + begin, static_cast<std::size_t>(end - begin)};
}

std::span<const InstanceId> DynamicUniverse::instancesOnEdge(
    GlobalEdgeId e) const {
  checkIndex(e, numGlobalEdges_, "global edge id");
  const auto& live = edgeLive_[static_cast<std::size_t>(e)];
  return {live.data(), live.size()};
}

bool DynamicUniverse::overlapping(InstanceId a, InstanceId b) const {
  return instancesOverlap(*this, a, b);
}

bool DynamicUniverse::conflicting(InstanceId a, InstanceId b) const {
  return instancesConflict(*this, a, b);
}

std::int32_t DynamicUniverse::groupOf(InstanceId i) const {
  DemandId demand = 0;
  std::int32_t local = 0;
  const DemandSlab& slab = slabOf(i, demand, local);
  return slab.group[static_cast<std::size_t>(local)];
}

std::span<const GlobalEdgeId> DynamicUniverse::critical(InstanceId i) const {
  DemandId demand = 0;
  std::int32_t local = 0;
  const DemandSlab& slab = slabOf(i, demand, local);
  const auto begin = slab.criticalOffset[static_cast<std::size_t>(local)];
  const auto end = slab.criticalOffset[static_cast<std::size_t>(local) + 1];
  return {slab.criticalPool.data() + begin,
          static_cast<std::size_t>(end - begin)};
}

}  // namespace treesched
