#include "core/universe.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace treesched {

std::vector<std::int32_t> networkEdgeOffsets(const TreeProblem& problem) {
  std::vector<std::int32_t> offsets(1, 0);
  for (const TreeNetwork& net : problem.networks) {
    offsets.push_back(offsets.back() + net.numEdges());
  }
  return offsets;
}

std::vector<std::int32_t> networkEdgeOffsets(const LineProblem& problem) {
  std::vector<std::int32_t> offsets(1, 0);
  for (ResourceId r = 0; r < problem.numResources; ++r) {
    offsets.push_back(offsets.back() + problem.numSlots);
  }
  return offsets;
}

void expandDemand(const TreeProblem& problem, DemandId d,
                  const std::vector<std::int32_t>& edgeOffset,
                  InstanceId firstId, std::vector<InstanceRecord>& records,
                  std::vector<GlobalEdgeId>& pathPool) {
  const Demand& dem = problem.demands[static_cast<std::size_t>(d)];
  InstanceId id = firstId;
  for (const TreeId t : problem.access[static_cast<std::size_t>(d)]) {
    const TreeNetwork& net = problem.networks[static_cast<std::size_t>(t)];
    InstanceRecord rec;
    rec.id = id++;
    rec.demand = d;
    rec.network = t;
    rec.u = dem.u;
    rec.v = dem.v;
    rec.profit = dem.profit;
    rec.height = dem.height;
    rec.pathBegin = static_cast<std::int32_t>(pathPool.size());
    for (const EdgeId e : net.pathEdges(dem.u, dem.v)) {
      pathPool.push_back(edgeOffset[static_cast<std::size_t>(t)] + e);
    }
    rec.pathEnd = static_cast<std::int32_t>(pathPool.size());
    checkThat(rec.pathLength() >= 1, "instance path non-empty", __FILE__,
              __LINE__);
    records.push_back(rec);
  }
}

void expandDemand(const LineProblem& problem, DemandId d,
                  const std::vector<std::int32_t>& edgeOffset,
                  InstanceId firstId, std::vector<InstanceRecord>& records,
                  std::vector<GlobalEdgeId>& pathPool) {
  const WindowDemand& dem = problem.demands[static_cast<std::size_t>(d)];
  InstanceId id = firstId;
  for (const ResourceId r : problem.access[static_cast<std::size_t>(d)]) {
    const std::int32_t lastStart = dem.deadline - dem.processing + 1;
    for (std::int32_t start = dem.release; start <= lastStart; ++start) {
      InstanceRecord rec;
      rec.id = id++;
      rec.demand = d;
      rec.network = r;
      rec.u = start;
      rec.v = start + dem.processing - 1;
      rec.profit = dem.profit;
      rec.height = dem.height;
      rec.pathBegin = static_cast<std::int32_t>(pathPool.size());
      for (std::int32_t slot = rec.u; slot <= rec.v; ++slot) {
        pathPool.push_back(edgeOffset[static_cast<std::size_t>(r)] + slot);
      }
      rec.pathEnd = static_cast<std::int32_t>(pathPool.size());
      records.push_back(rec);
    }
  }
}

template <class Problem>
void InstanceUniverse::expandAll(const Problem& problem) {
  problem.validate();
  numDemands_ = problem.numDemands();
  edgeOffset_ = networkEdgeOffsets(problem);
  numNetworks_ = static_cast<std::int32_t>(edgeOffset_.size()) - 1;
  numGlobalEdges_ = edgeOffset_.back();
  for (DemandId d = 0; d < numDemands_; ++d) {
    expandDemand(problem, d, edgeOffset_, numInstances(), instances_,
                 pathPool_);
  }
  finalize();
}

InstanceUniverse InstanceUniverse::fromTreeProblem(const TreeProblem& problem) {
  InstanceUniverse u;
  u.kind_ = Kind::Tree;
  u.expandAll(problem);
  return u;
}

InstanceUniverse InstanceUniverse::fromLineProblem(const LineProblem& problem) {
  InstanceUniverse u;
  u.kind_ = Kind::Line;
  u.lineSlots_ = problem.numSlots;
  u.expandAll(problem);
  return u;
}

void InstanceUniverse::finalize() {
  // Demand -> instances CSR. Instances were appended in ascending demand
  // order, so a counting pass suffices.
  demandOffset_.assign(static_cast<std::size_t>(numDemands_) + 1, 0);
  for (const InstanceRecord& rec : instances_) {
    ++demandOffset_[static_cast<std::size_t>(rec.demand) + 1];
  }
  for (std::size_t d = 0; d < static_cast<std::size_t>(numDemands_); ++d) {
    demandOffset_[d + 1] += demandOffset_[d];
  }
  demandInstances_.resize(instances_.size());
  {
    std::vector<std::int32_t> cursor(demandOffset_.begin(),
                                     demandOffset_.end() - 1);
    for (const InstanceRecord& rec : instances_) {
      demandInstances_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(rec.demand)]++)] = rec.id;
    }
  }

  // Global edge -> instances CSR.
  edgeInstOffset_.assign(static_cast<std::size_t>(numGlobalEdges_) + 1, 0);
  for (const GlobalEdgeId e : pathPool_) {
    ++edgeInstOffset_[static_cast<std::size_t>(e) + 1];
  }
  for (std::size_t e = 0; e < static_cast<std::size_t>(numGlobalEdges_); ++e) {
    edgeInstOffset_[e + 1] += edgeInstOffset_[e];
  }
  edgeInstances_.resize(pathPool_.size());
  {
    std::vector<std::int32_t> cursor(edgeInstOffset_.begin(),
                                     edgeInstOffset_.end() - 1);
    for (const InstanceRecord& rec : instances_) {
      for (std::int32_t p = rec.pathBegin; p < rec.pathEnd; ++p) {
        const GlobalEdgeId e = pathPool_[static_cast<std::size_t>(p)];
        edgeInstances_[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(e)]++)] = rec.id;
      }
    }
  }

  if (!instances_.empty()) {
    profitMax_ = profitMin_ = instances_.front().profit;
    for (const InstanceRecord& rec : instances_) {
      profitMax_ = std::max(profitMax_, rec.profit);
      profitMin_ = std::min(profitMin_, rec.profit);
    }
  }
}

const InstanceRecord& InstanceUniverse::instance(InstanceId i) const {
  checkIndex(i, numInstances(), "instance id");
  return instances_[static_cast<std::size_t>(i)];
}

std::span<const GlobalEdgeId> InstanceUniverse::path(InstanceId i) const {
  const InstanceRecord& rec = instance(i);
  return {pathPool_.data() + rec.pathBegin,
          static_cast<std::size_t>(rec.pathLength())};
}

std::span<const InstanceId> InstanceUniverse::instancesOfDemand(
    DemandId d) const {
  checkIndex(d, numDemands_, "demand id");
  const auto begin = demandOffset_[static_cast<std::size_t>(d)];
  const auto end = demandOffset_[static_cast<std::size_t>(d) + 1];
  return {demandInstances_.data() + begin,
          static_cast<std::size_t>(end - begin)};
}

GlobalEdgeId InstanceUniverse::globalEdge(TreeId network, EdgeId e) const {
  checkIndex(network, numNetworks_, "network id");
  const GlobalEdgeId g = edgeOffset_[static_cast<std::size_t>(network)] + e;
  checkThat(g < edgeOffset_[static_cast<std::size_t>(network) + 1],
            "edge id within network", __FILE__, __LINE__);
  return g;
}

std::span<const InstanceId> InstanceUniverse::instancesOnEdge(
    GlobalEdgeId e) const {
  checkIndex(e, numGlobalEdges_, "global edge id");
  const auto begin = edgeInstOffset_[static_cast<std::size_t>(e)];
  const auto end = edgeInstOffset_[static_cast<std::size_t>(e) + 1];
  return {edgeInstances_.data() + begin, static_cast<std::size_t>(end - begin)};
}

bool InstanceUniverse::overlapping(InstanceId a, InstanceId b) const {
  return instancesOverlap(*this, a, b);
}

bool InstanceUniverse::conflicting(InstanceId a, InstanceId b) const {
  return instancesConflict(*this, a, b);
}

std::int32_t InstanceUniverse::lineSlots() const {
  checkThat(kind_ == Kind::Line, "line universe", __FILE__, __LINE__);
  return lineSlots_;
}

}  // namespace treesched
