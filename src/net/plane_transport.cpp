#include "net/plane_transport.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace treesched {

// plane_ is declared before adjacency_, so it is sized from the argument
// before the move.
PlaneTransport::PlaneTransport(std::vector<std::vector<std::int32_t>> adjacency)
    : plane_(std::max<std::int32_t>(
          1, static_cast<std::int32_t>(adjacency.size()))),
      adjacency_(std::move(adjacency)) {
  validateCommunicationAdjacency(adjacency_);
}

std::span<const std::int32_t> PlaneTransport::neighbors(std::int32_t p) const {
  checkIndex(p, numProcessors(), "PlaneTransport::neighbors");
  return adjacency_[static_cast<std::size_t>(p)];
}

std::int32_t PlaneTransport::connectDemand(
    std::int32_t p, std::span<const std::int32_t> neighbors) {
  checkIndex(p, numProcessors(), "PlaneTransport::connectDemand");
  checkThat(!plane_.hasStaged(), "topology mutation only between rounds",
            __FILE__, __LINE__);
  auto& own = adjacency_[static_cast<std::size_t>(p)];
  checkThat(own.empty(), "connectDemand target must be isolated", __FILE__,
            __LINE__);
  // Validate the whole list before touching any adjacency (strong
  // guarantee: a rejected call leaves the live graph unchanged).
  for (std::size_t idx = 0; idx < neighbors.size(); ++idx) {
    const std::int32_t n = neighbors[idx];
    checkIndex(n, numProcessors(), "connectDemand neighbour");
    checkThat(n != p, "no self links", __FILE__, __LINE__);
    checkThat(idx == 0 || neighbors[idx - 1] < n,
              "connectDemand neighbours sorted, duplicate-free", __FILE__,
              __LINE__);
  }
  own.assign(neighbors.begin(), neighbors.end());
  for (const std::int32_t n : neighbors) {
    auto& theirs = adjacency_[static_cast<std::size_t>(n)];
    const auto pos = std::lower_bound(theirs.begin(), theirs.end(), p);
    checkThat(pos == theirs.end() || *pos != p,
              "connectDemand edge already present", __FILE__, __LINE__);
    theirs.insert(pos, p);
  }
  return -1;
}

void PlaneTransport::disconnectDemand(std::int32_t p) {
  checkIndex(p, numProcessors(), "PlaneTransport::disconnectDemand");
  checkThat(!plane_.hasStaged(), "topology mutation only between rounds",
            __FILE__, __LINE__);
  auto& own = adjacency_[static_cast<std::size_t>(p)];
  for (const std::int32_t n : own) {
    auto& theirs = adjacency_[static_cast<std::size_t>(n)];
    const auto pos = std::lower_bound(theirs.begin(), theirs.end(), p);
    checkThat(pos != theirs.end() && *pos == p,
              "disconnectDemand edge symmetric", __FILE__, __LINE__);
    theirs.erase(pos);
  }
  own.clear();
}

void PlaneTransport::validateTopology() const {
  validateCommunicationAdjacency(adjacency_);
}

void PlaneTransport::deliverRound() {
  ++stats_.rounds;
  plane_.deliver();
  // O(#kinds) from the plane's histogram: no re-scan of the messages.
  const std::int64_t delivered = plane_.deliveredCount();
  if (delivered > 0) {
    ++stats_.busyRounds;
    stats_.messages += delivered;
    const auto& kinds = plane_.kindCounts();
    for (std::size_t kind = 0; kind < kinds.size(); ++kind) {
      if (kinds[kind] == 0) continue;
      const std::int32_t units =
          messagePayloadUnits(static_cast<MessageKind>(kind));
      stats_.payload += kinds[kind] * units;
      stats_.maxMessagePayload = std::max(stats_.maxMessagePayload, units);
    }
  }
  stats_.planeGrowthEvents = plane_.growthEvents();
  stats_.planeLastGrowthRound = plane_.lastGrowthRound();
  if (roundsCtr_ != nullptr) {
    roundsCtr_->add(1);
    messagesCtr_->add(delivered);
    if (delivered > 0) busyRoundsCtr_->add(1);
  }
  if (trace_ && delivered > 0) {
    tracer_->instant("deliver", "net", 0,
                     {{"round", stats_.rounds}, {"messages", delivered}});
  }
}

void PlaneTransport::endSilentRounds(std::int64_t count) {
  checkThat(count >= 0, "silent round count non-negative", __FILE__, __LINE__);
  checkThat(!plane_.hasStaged(), "silent rounds must not drop queued messages",
            __FILE__, __LINE__);
  if (count == 0) return;
  plane_.clearInboxes();
  stats_.rounds += count;
  stats_.silentRounds += count;
  if (roundsCtr_ != nullptr) {
    roundsCtr_->add(count);
    silentRoundsCtr_->add(count);
  }
}

void PlaneTransport::attachTelemetry(Tracer* tracer, MetricsRegistry* metrics) {
  tracer_ = tracer;
  trace_ = tracer != nullptr && tracer->enabled();
  // A null registry detaches every instrument.
  roundsCtr_ = metrics != nullptr ? &metrics->counter("net.rounds") : nullptr;
  busyRoundsCtr_ =
      metrics != nullptr ? &metrics->counter("net.busy_rounds") : nullptr;
  messagesCtr_ =
      metrics != nullptr ? &metrics->counter("net.messages") : nullptr;
  silentRoundsCtr_ =
      metrics != nullptr ? &metrics->counter("net.silent_rounds") : nullptr;
}

std::span<const Message> PlaneTransport::inbox(std::int32_t p) const {
  checkIndex(p, numProcessors(), "PlaneTransport::inbox");
  return plane_.inbox(p);
}

void PlaneTransport::appendActiveInboxes(std::vector<std::int32_t>& out) const {
  const auto active = plane_.activeDests();
  out.insert(out.end(), active.begin(), active.end());
}

PlaneTransport& requirePlaneTransport(Transport& transport) {
  auto* plane = dynamic_cast<PlaneTransport*>(&transport);
  checkThat(plane != nullptr,
            "transport supports live topology mutation (PlaneTransport)",
            __FILE__, __LINE__);
  return *plane;
}

}  // namespace treesched
