#include "net/synchronizer.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace treesched {

namespace {

/// Hosted-demand histogram buckets: wide dynamic range (a hot shard can
/// host thousands of demands) at bounded storage. constexpr so instrument
/// resolution allocates nothing (the NullSink zero-allocation gate).
constexpr std::array<double, 16> kHostedBuckets = {
    1,  2,   4,   8,    16,   32,   64,    128,
    256, 512, 1024, 2048, 4096, 8192, 16384, 32768};

/// The rebalancer sheds a processor's live load above this multiple of
/// the mean, in at most this many iterations (each moves one network or
/// one overflow slice of demands) per call.
constexpr double kRebalanceThreshold = 1.25;
constexpr std::int32_t kRebalanceMaxMoves = 64;

}  // namespace

AlphaSynchronizer::AlphaSynchronizer(
    std::vector<std::vector<std::int32_t>> demandAdjacency,
    ShardPlacement placement, const AsyncConfig& config)
    : PlaneTransport(std::move(demandAdjacency)),
      placement_(std::move(placement)),
      phys_(placement_.numProcessors, config.link, config.seed),
      silentRoundCost_(config.link.latency.base) {
  checkThat(numProcessors() == placement_.numDemands(),
            "placement covers the communication graph", __FILE__, __LINE__);
  remoteProcsOf_.resize(static_cast<std::size_t>(numProcessors()));
  isDeclared_.assign(static_cast<std::size_t>(numProcessors()), 0);
  for (DemandId d = 0; d < numProcessors(); ++d) {
    checkThat(placement_.isPlaced(d) || adjacencyOf(d).empty(),
              "unplaced demands must be isolated", __FILE__, __LINE__);
    rebuildRemoteProcs(d);
  }
}

void AlphaSynchronizer::rebuildRemoteProcs(std::int32_t d) {
  auto& remote = remoteProcsOf_[static_cast<std::size_t>(d)];
  remote.clear();
  const std::int32_t home = processorOf(d);
  for (const std::int32_t e : adjacencyOf(d)) {
    if (processorOf(e) != home) {
      remote.push_back(processorOf(e));
    }
  }
  std::sort(remote.begin(), remote.end());
  remote.erase(std::unique(remote.begin(), remote.end()), remote.end());
}

std::int32_t AlphaSynchronizer::connectDemand(
    std::int32_t d, std::span<const std::int32_t> neighbors) {
  checkThat(pendingPayload_ == 0, "topology mutation only between rounds",
            __FILE__, __LINE__);
  PlaneTransport::connectDemand(d, neighbors);
  // Live placements host arrivals on demand: d first, then any
  // still-isolated neighbour, in list order — deterministic. The core
  // has accepted the list, so a rejected connect places nothing.
  const auto place = [&](std::int32_t x) {
    if (!placement_.live || placement_.isPlaced(x)) return -1;
    return placement_.placeDemand(x);
  };
  const std::int32_t placed = place(d);
  for (const std::int32_t n : neighbors) place(n);
  // Remote-processor sets rebuilt only for the touched demands.
  rebuildRemoteProcs(d);
  for (const std::int32_t n : neighbors) rebuildRemoteProcs(n);
  return placed;
}

void AlphaSynchronizer::disconnectDemand(std::int32_t d) {
  checkThat(pendingPayload_ == 0, "topology mutation only between rounds",
            __FILE__, __LINE__);
  const std::span<const std::int32_t> departing = neighbors(d);
  touchedScratch_.assign(departing.begin(), departing.end());
  PlaneTransport::disconnectDemand(d);
  for (const std::int32_t n : touchedScratch_) rebuildRemoteProcs(n);
  rebuildRemoteProcs(d);
  if (placement_.live && placement_.isPlaced(d)) {
    placement_.removeDemand(d);
  }
}

void AlphaSynchronizer::broadcast(const Message& message) {
  checkIndex(message.from, numProcessors(), "AlphaSynchronizer::broadcast");
  const auto from = static_cast<std::size_t>(message.from);
  checkThat(!declaring_ || isDeclared_[from] != 0,
            "broadcast from a declared sender", __FILE__, __LINE__);
  const std::int32_t home = processorOf(message.from);
  // Same-processor neighbours: delivered from local memory at the round
  // boundary, never touching the wire.
  for (const std::int32_t d : adjacencyOf(message.from)) {
    if (processorOf(d) == home) {
      plane_.stage(d, message);
    }
  }
  // One wire packet per remote processor; the receiver fans it out to
  // every hosted neighbour of the sender.
  for (const std::int32_t q : remoteProcsOf_[from]) {
    phys_.send(home, q, message);
    ++pendingPayload_;
  }
}

void AlphaSynchronizer::declareSenders(
    std::span<const std::int32_t> senders) {
  declaring_ = true;
  for (const std::int32_t d : senders) {
    checkIndex(d, numProcessors(), "AlphaSynchronizer::declareSenders");
    isDeclared_[static_cast<std::size_t>(d)] = 1;
    declared_.push_back(d);
  }
}

void AlphaSynchronizer::endDeclaration() {
  for (const std::int32_t d : declared_) {
    isDeclared_[static_cast<std::size_t>(d)] = 0;
  }
  declared_.clear();
  declaring_ = false;
}

void AlphaSynchronizer::sendMarkers() {
  markers_.clear();
  const auto addSender = [&](DemandId d) {
    const std::uint64_t home =
        std::uint64_t{static_cast<std::uint32_t>(processorOf(d))} << 32;
    for (const std::int32_t q : remoteProcsOf_[static_cast<std::size_t>(d)]) {
      markers_.push_back(home | static_cast<std::uint32_t>(q));
    }
  };
  if (declaring_) {
    for (const std::int32_t d : declared_) addSender(d);
  } else {
    for (DemandId d = 0; d < numProcessors(); ++d) addSender(d);
  }
  endDeclaration();
  // Identity placement under an ascending declaration, which is what the
  // engine declares, already yields ascending keys.
  if (!std::is_sorted(markers_.begin(), markers_.end())) {
    std::sort(markers_.begin(), markers_.end());
  }
  markers_.erase(std::unique(markers_.begin(), markers_.end()),
                 markers_.end());
  for (const std::uint64_t key : markers_) {
    phys_.send(static_cast<std::int32_t>(key >> 32),
               static_cast<std::int32_t>(key & 0xffffffffu), Message{},
               /*control=*/true);
  }
}

void AlphaSynchronizer::endRound() {
  // Safe markers: each possible sender tells its remote processors it has
  // sent everything for this round. The markers ride the same lossy
  // links (acked, retransmitted) — they are the synchronizer's cost.
  sendMarkers();

  // Round r+1 starts once all round-r payload and markers are delivered.
  if (pendingPayload_ > 0 || !markers_.empty()) {
    phys_.flush();
  } else {
    // Fully local round (everything on one processor): charge the
    // nominal barrier cost so virtual time still advances.
    phys_.advanceTime(silentRoundCost_);
  }
  pendingPayload_ = 0;

  // Stage the fan-out of every wire packet, in send order, to the
  // sender's neighbours hosted on the receiving processor; the plane then
  // builds all demand-level inboxes (local deliveries were staged at
  // broadcast time) and sorts them into canonical order.
  for (const PhysicalDelivery& delivery : phys_.deliveries()) {
    for (const std::int32_t d : adjacencyOf(delivery.payload.from)) {
      if (processorOf(d) == delivery.to) {
        plane_.stage(d, delivery.payload);
      }
    }
  }
  phys_.drainDeliveries();
  deliverRound();

  stats_.virtualTime = phys_.now();
  stats_.transmissions = phys_.transmissions();
  stats_.markerTransmissions = phys_.markerTransmissions();
  stats_.retransmissions = phys_.retransmissions();
  stats_.drops = phys_.drops();
  stats_.duplicates = phys_.duplicates();
  if (virtualTimeGauge_ != nullptr) {
    virtualTimeGauge_->set(stats_.virtualTime);
    transmissionsGauge_->set(static_cast<double>(stats_.transmissions));
    markerTransmissionsGauge_->set(
        static_cast<double>(stats_.markerTransmissions));
    payloadTransmissionsGauge_->set(static_cast<double>(
        stats_.transmissions - stats_.markerTransmissions));
    retransmissionsGauge_->set(static_cast<double>(stats_.retransmissions));
    dropsGauge_->set(static_cast<double>(stats_.drops));
    duplicatesGauge_->set(static_cast<double>(stats_.duplicates));
  }
}

void AlphaSynchronizer::endSilentRounds(std::int64_t count) {
  checkThat(pendingPayload_ == 0, "silent rounds must not drop queued messages",
            __FILE__, __LINE__);
  PlaneTransport::endSilentRounds(count);
  if (count == 0) return;
  endDeclaration();
  // Silent rounds are charged as barrier-only: the nominal per-round cost,
  // no marker traffic. Every silence the protocol charges here is one
  // every receiver can compute; silence only its owners know goes through
  // a declared endRound() and pays their markers.
  phys_.advanceTime(static_cast<double>(count) * silentRoundCost_);
  stats_.virtualTime = phys_.now();
  if (virtualTimeGauge_ != nullptr) virtualTimeGauge_->set(stats_.virtualTime);
}

const NetworkStats& AlphaSynchronizer::stats() const {
  stats_.processorLoad = phys_.endpointLoad();
  return stats_;
}

void AlphaSynchronizer::attachTelemetry(Tracer* tracer,
                                        MetricsRegistry* metrics) {
  PlaneTransport::attachTelemetry(tracer, metrics);
  // A null registry detaches every instrument.
  const auto gauge = [&](std::string_view name) {
    return metrics != nullptr ? &metrics->gauge(name) : nullptr;
  };
  virtualTimeGauge_ = gauge("net.virtual_time");
  transmissionsGauge_ = gauge("net.transmissions");
  markerTransmissionsGauge_ = gauge("net.marker_transmissions");
  payloadTransmissionsGauge_ = gauge("net.payload_transmissions");
  retransmissionsGauge_ = gauge("net.retransmissions");
  dropsGauge_ = gauge("net.drops");
  duplicatesGauge_ = gauge("net.duplicates");
  const bool live = metrics != nullptr && placement_.live;
  hostedHist_ = live ? &metrics->histogram("net.shard_hosted_demands",
                                           kHostedBuckets)
                     : nullptr;
  loadVarianceGauge_ = live ? gauge("net.shard_load_variance") : nullptr;
}

void AlphaSynchronizer::publishLoadTelemetry() {
  if (loadVarianceGauge_ == nullptr || !placement_.live) {
    return;
  }
  for (std::int32_t p = 0; p < placement_.numProcessors; ++p) {
    hostedHist_->record(
        static_cast<double>(placement_.liveDemandCount(p)));
  }
  loadVarianceGauge_->set(placement_.loadVariance());
}

RebalanceOutcome AlphaSynchronizer::rebalanceShards(
    const ShardRebalanceConfig& config) {
  checkThat(!plane_.hasStaged() && pendingPayload_ == 0,
            "topology mutation only between rounds", __FILE__, __LINE__);
  RebalanceOutcome outcome;
  if (!placement_.live || placement_.numProcessors <= 1) {
    return outcome;
  }
  const std::int64_t begin = trace_ ? tracer_->now() : 0;
  ShardPlacement::RebalancePlan plan = placement_.planRebalance(
      kRebalanceThreshold, config.seed, kRebalanceMaxMoves);
  outcome.networksMoved = plan.networksMoved;
  outcome.loadVarianceBefore = plan.varianceBefore;
  outcome.loadVarianceAfter = plan.varianceAfter;

  touchedScratch_.clear();
  for (const ShardPlacement::Migration& move : plan.moves) {
    placement_.migrateDemand(move.demand, move.to);
    const std::span<const std::int32_t> moved = adjacencyOf(move.demand);
    touchedScratch_.insert(touchedScratch_.end(), moved.begin(), moved.end());
    touchedScratch_.push_back(move.demand);
  }
  for (const auto& [net, to] : plan.anchorMoves) {
    placement_.retargetAnchor(net, to);
  }
  // Remote-processor broadcast sets: rebuilt once per touched demand
  // (movers and their neighbours), in ascending order.
  std::sort(touchedScratch_.begin(), touchedScratch_.end());
  touchedScratch_.erase(
      std::unique(touchedScratch_.begin(), touchedScratch_.end()),
      touchedScratch_.end());
  for (const std::int32_t d : touchedScratch_) {
    rebuildRemoteProcs(d);
  }

  if (trace_) {
    tracer_->span("rebalance", "net", 0, begin,
                  {{"demands_moved", std::ssize(plan.moves)},
                   {"networks_moved", outcome.networksMoved}});
  }
  outcome.moves = std::move(plan.moves);
  return outcome;
}

}  // namespace treesched
