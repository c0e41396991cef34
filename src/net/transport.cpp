#include "net/transport.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace treesched {

void Transport::appendActiveInboxes(std::vector<std::int32_t>& out) const {
  const std::int32_t n = numProcessors();
  for (std::int32_t p = 0; p < n; ++p) {
    if (!inbox(p).empty()) {
      out.push_back(p);
    }
  }
}

void Transport::declareSenders(std::span<const std::int32_t> /*senders*/) {}

void Transport::attachRunner(ParallelRunner* /*runner*/) {}

void Transport::attachTelemetry(Tracer* /*tracer*/,
                                MetricsRegistry* /*metrics*/) {}

void Transport::attachLedger(LedgerSink* /*ledger*/) {}

void Transport::recordPlacementLoad() {}

RebalanceOutcome MutableTopology::rebalanceShards(
    const ShardRebalanceConfig& /*config*/) {
  return {};
}

void MutableTopology::setDemandWeight(std::int32_t /*demand*/,
                                      std::int64_t /*weight*/) {}

MutableTopology* mutableTopologyOf(Transport& transport) {
  return dynamic_cast<MutableTopology*>(&transport);
}

MutableTopology& requireMutableTopology(Transport& transport) {
  MutableTopology* topology = mutableTopologyOf(transport);
  checkThat(topology != nullptr,
            "transport supports live topology mutation (MutableTopology)",
            __FILE__, __LINE__);
  return *topology;
}

void validateLiveTopology(const MutableTopology& topology) {
  std::vector<std::vector<std::int32_t>> adjacency(
      static_cast<std::size_t>(topology.numDemands()));
  for (std::int32_t d = 0; d < topology.numDemands(); ++d) {
    const auto neighbors = topology.currentNeighbors(d);
    adjacency[static_cast<std::size_t>(d)].assign(neighbors.begin(),
                                                  neighbors.end());
  }
  validateCommunicationAdjacency(adjacency);
}

void validateCommunicationAdjacency(
    const std::vector<std::vector<std::int32_t>>& adjacency) {
  const auto n = static_cast<std::int32_t>(adjacency.size());
  for (std::int32_t v = 0; v < n; ++v) {
    auto sorted = adjacency[static_cast<std::size_t>(v)];
    std::sort(sorted.begin(), sorted.end());
    checkThat(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
              "adjacency list duplicate-free", __FILE__, __LINE__);
    for (const std::int32_t w : sorted) {
      checkThat(w >= 0 && w < n, "adjacency entry in range", __FILE__,
                __LINE__);
      checkThat(w != v, "no self loops", __FILE__, __LINE__);
      const auto& back = adjacency[static_cast<std::size_t>(w)];
      checkThat(std::find(back.begin(), back.end(), v) != back.end(),
                "adjacency symmetric", __FILE__, __LINE__);
    }
  }
}

}  // namespace treesched
