#include "dist/sim_network.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace treesched {

void SimNetwork::broadcast(const Message& message) {
  checkIndex(message.from, numProcessors(), "SimNetwork::broadcast");
  plane_.stageFanout(message, adjacencyOf(message.from));
}

std::vector<std::vector<std::int32_t>> communicationGraph(
    const std::vector<std::vector<std::int32_t>>& access,
    std::int32_t numNetworks) {
  const auto numProc = static_cast<std::int32_t>(access.size());
  std::vector<std::vector<std::int32_t>> byNetwork(
      static_cast<std::size_t>(numNetworks));
  for (std::int32_t d = 0; d < numProc; ++d) {
    for (const std::int32_t t : access[static_cast<std::size_t>(d)]) {
      checkIndex(t, numNetworks, "communicationGraph access entry");
      byNetwork[static_cast<std::size_t>(t)].push_back(d);
    }
  }
  std::vector<std::vector<std::int32_t>> adjacency(
      static_cast<std::size_t>(numProc));
  for (const auto& sharers : byNetwork) {
    for (const std::int32_t a : sharers) {
      for (const std::int32_t b : sharers) {
        if (a != b) {
          adjacency[static_cast<std::size_t>(a)].push_back(b);
        }
      }
    }
  }
  for (auto& nbrs : adjacency) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adjacency;
}

}  // namespace treesched
