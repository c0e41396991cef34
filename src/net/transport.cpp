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

void validateCommunicationAdjacency(
    const std::vector<std::vector<std::int32_t>>& adjacency) {
  const auto n = static_cast<std::int32_t>(adjacency.size());
  // Pass 1: entries in range and no self loops; count each row of the
  // transpose.
  std::vector<std::size_t> offset(adjacency.size() + 1, 0);
  for (std::int32_t v = 0; v < n; ++v) {
    for (const std::int32_t w : adjacency[static_cast<std::size_t>(v)]) {
      checkThat(w >= 0 && w < n, "adjacency entry in range", __FILE__,
                __LINE__);
      checkThat(w != v, "no self loops", __FILE__, __LINE__);
      ++offset[static_cast<std::size_t>(w) + 1];
    }
  }
  for (std::size_t w = 0; w < adjacency.size(); ++w) {
    offset[w + 1] += offset[w];
  }
  // Pass 2: the transpose as one flat CSR. Row w lists every v whose row
  // holds w, ascending because v is visited in order.
  std::vector<std::int32_t> transposed(offset.back());
  std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
  for (std::int32_t v = 0; v < n; ++v) {
    for (const std::int32_t w : adjacency[static_cast<std::size_t>(v)]) {
      transposed[cursor[static_cast<std::size_t>(w)]++] = v;
    }
  }
  // Pass 3: a duplicate-free graph is symmetric iff each row, sorted,
  // equals its transposed row. Only an unsorted row is copied.
  std::vector<std::int32_t> sortedCopy;
  for (std::size_t v = 0; v < adjacency.size(); ++v) {
    std::span<const std::int32_t> row = adjacency[v];
    if (!std::is_sorted(row.begin(), row.end())) {
      sortedCopy.assign(row.begin(), row.end());
      std::sort(sortedCopy.begin(), sortedCopy.end());
      row = sortedCopy;
    }
    checkThat(std::adjacent_find(row.begin(), row.end()) == row.end(),
              "adjacency list duplicate-free", __FILE__, __LINE__);
    const std::span<const std::int32_t> back(
        transposed.data() + offset[v], transposed.data() + offset[v + 1]);
    checkThat(std::equal(row.begin(), row.end(), back.begin(), back.end()),
              "adjacency symmetric", __FILE__, __LINE__);
  }
}

}  // namespace treesched
