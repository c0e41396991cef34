// Alpha-synchronizer: the round-structured protocol over an async wire.
//
// The §5 protocol assumes synchronous rounds. An alpha-synchronizer
// (Awerbuch 1985) recovers them on an asynchronous network: in every round
// each possible sender sends its payload followed by a "safe" marker to
// every processor hosting one of its neighbours, and a processor starts
// round r+1 once the round-r markers of all its possible senders have
// arrived. The possible senders are the round's declaration
// (Transport::declareSenders), a set every receiver computes from what it
// already holds, or every demand when the round declares none. A marker
// can carry a promise: the protocol's silent group owners promise silence
// until their next possible shortfall (a Chandy–Misra lookahead null
// message), and later declarations leave them out until then. A round
// with no payload still pays the markers of the senders whose silence no
// receiver can compute; only a round whose silence every receiver can
// compute is charged silent (endSilentRounds: the nominal barrier cost,
// no markers). Because the underlying ack/retransmission links are
// reliable (net/async_network.hpp), every payload message broadcast in
// round r is in the recipients' inboxes before round r+1 — so, after
// canonical sorting, the protocol consumes exactly the inboxes the
// synchronous bus would produce, and the whole run is bit-identical to
// the round-synchronous execution under ANY latency model and ANY drop
// rate. Latency and loss cost virtual time, retransmissions and control
// traffic, never correctness.
//
// With a non-identity ShardPlacement one physical processor hosts many
// demands: intra-processor messages are local memory operations (free,
// instant), and a broadcast is sent once per remote processor rather than
// once per remote demand, so locality-aware placement measurably cuts
// wire traffic. The protocol still sees one logical endpoint per demand.
#pragma once

#include <cstdint>
#include <vector>

#include "net/async_network.hpp"
#include "net/plane_transport.hpp"
#include "net/shard.hpp"
#include "net/transport.hpp"

namespace treesched {

class Gauge;
class Histogram;

/// Everything the asynchronous transport needs beyond the communication
/// graph: link behaviour, loss, and how demands map onto processors.
struct AsyncConfig {
  std::uint64_t seed = 1;  ///< keys every latency/drop draw
  AsyncLinkConfig link;
  ShardStrategy strategy = ShardStrategy::RoundRobin;
  /// Physical processors to shard onto; <= 0 keeps the paper's
  /// one-processor-per-demand model.
  std::int32_t shardProcessors = 0;
};

/// The synchronizer's topology is live: demands can connect and
/// disconnect between rounds, exactly like on the round-synchronous bus
/// — the live graph, the inboxes, the round accounting and the splice
/// are the plane-transport core's (net/plane_transport.hpp).
/// The per-demand remote processor sets — what both payload and safe
/// markers ride on — are rebuilt only for the demands a mutation touches,
/// never the whole graph. On a live ShardPlacement arrivals are placed
/// locality-aware and departures tombstoned (net/shard.hpp).
class AlphaSynchronizer : public PlaneTransport {
 public:
  /// `demandAdjacency` is the protocol's communication graph (validated);
  /// `placement` maps its vertices onto physical processors. Demands may
  /// be unplaced only while isolated (live placements place them on
  /// connect).
  AlphaSynchronizer(std::vector<std::vector<std::int32_t>> demandAdjacency,
                    ShardPlacement placement, const AsyncConfig& config);

  /// Throws CheckError on a broadcast from a demand the round's
  /// declaration leaves out.
  void broadcast(const Message& message) override;
  void declareSenders(std::span<const std::int32_t> senders) override;
  void endRound() override;
  void endSilentRounds(std::int64_t count) override;

  /// The core's stats with processorLoad copied from the wire: an
  /// O(processors) copy made when read, not every round.
  const NetworkStats& stats() const override;

  /// Adds the async-wire gauges net.{virtual_time,transmissions,
  /// marker_transmissions,payload_transmissions,retransmissions,drops,
  /// duplicates} (mirrors of the cumulative NetworkStats fields,
  /// refreshed each round) to the core's net.{rounds,busy_rounds,
  /// messages} counters and "deliver" instants.
  void attachTelemetry(Tracer* tracer, MetricsRegistry* metrics) override;

  /// Publishes the net.shard_hosted_demands histogram +
  /// net.shard_load_variance gauge from the current live placement (the
  /// online solver's once-per-epoch call; no-op without an attached
  /// registry or on a non-live placement).
  void recordPlacementLoad() override { publishLoadTelemetry(); }

  const ShardPlacement& placement() const { return placement_; }

  // ---- Live topology ---------------------------------------------------

  /// The core's connect (which checks the whole list first); then, on a
  /// live placement, `d` and any still-unplaced neighbour are placed
  /// locality-aware, in list order. Returns d's new processor, or -1
  /// when it was not placed here.
  std::int32_t connectDemand(std::int32_t d,
                             std::span<const std::int32_t> neighbors) override;

  /// The core's disconnect; on a live placement the demand is then
  /// tombstoned out of its shard.
  void disconnectDemand(std::int32_t d) override;

  /// Epoch-boundary hot-shard rebalancing (live placements with > 1
  /// processor; everything else reports current variance and moves
  /// nothing). Applies the deterministic ShardPlacement::planRebalance
  /// plan, then rebuilds the remote-processor sets of every touched
  /// demand (movers and their neighbours), as connect/disconnect do, and
  /// returns the plan's moves.
  /// Placement is wire accounting only: the schedule is bit-identical
  /// with or without rebalancing (tests/rebalance_test.cpp). Emits a
  /// "rebalance" span when a tracer is live; the load telemetry itself
  /// is published by recordPlacementLoad() once per epoch, whether or
  /// not rebalancing runs.
  RebalanceOutcome rebalanceShards(const ShardRebalanceConfig& config) override;

  /// Forwards the demand's weight (live instance count) into the live
  /// placement's weighted-load accounting; no-op on a fixed placement.
  void setDemandWeight(std::int32_t demand, std::int64_t weight) override {
    if (placement_.live) {
      placement_.setDemandWeight(demand, weight);
    }
  }

 private:
  std::int32_t processorOf(DemandId d) const {
    return placement_.processorOfDemand[static_cast<std::size_t>(d)];
  }

  /// Rebuilds the remote-processor broadcast set of one demand from its
  /// current adjacency — O(degree), called only for touched demands.
  void rebuildRemoteProcs(std::int32_t d);

  /// Sends one safe marker per (declared sender's processor, remote
  /// processor of that sender) pair, ascending; ends the declaration.
  void sendMarkers();
  void endDeclaration();

  ShardPlacement placement_;
  /// Remote processors hosting at least one neighbour of demand d —
  /// each broadcast and each of d's markers goes to the wire once per
  /// entry, not once per demand.
  std::vector<std::vector<std::int32_t>> remoteProcsOf_;
  /// The round's declared senders, with a per-demand flag for the
  /// broadcast check; markers_ holds (from << 32 | to) marker keys.
  bool declaring_ = false;
  std::vector<std::int32_t> declared_;
  std::vector<std::uint8_t> isDeclared_;
  std::vector<std::uint64_t> markers_;
  AsyncNetwork phys_;
  double silentRoundCost_ = 0;
  std::int64_t pendingPayload_ = 0;  ///< wire packets since last boundary

  // Async-wire telemetry (null when detached).
  Gauge* virtualTimeGauge_ = nullptr;
  Gauge* transmissionsGauge_ = nullptr;
  Gauge* markerTransmissionsGauge_ = nullptr;
  Gauge* payloadTransmissionsGauge_ = nullptr;
  Gauge* retransmissionsGauge_ = nullptr;
  Gauge* dropsGauge_ = nullptr;
  Gauge* duplicatesGauge_ = nullptr;
  Histogram* hostedHist_ = nullptr;   ///< net.shard_hosted_demands
  Gauge* loadVarianceGauge_ = nullptr;  ///< net.shard_load_variance

  /// Records the per-processor live loads + variance (live placements;
  /// refreshed at every recordPlacementLoad call — the online solver's
  /// epoch cadence, rebalancing or not).
  void publishLoadTelemetry();
  /// Rebuild set of a rebalance, and a departing demand's neighbours.
  std::vector<std::int32_t> touchedScratch_;
};

}  // namespace treesched
