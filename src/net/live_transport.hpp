// Factory for mutable-topology transports (the online churn engine).
//
// The online incremental re-solver (online/incremental.hpp) owns only a
// PlaneTransport& (the core whose live graph it splices); this factory is
// where a concrete wire is chosen. Every transport comes up with all pool
// demands isolated — the churn engine connects them as they arrive —
// and every kind runs the protocol bit-identically (the Transport
// contract), so the choice moves only the wire accounting: virtual
// time, transmissions, retransmissions, drops, processor load.
//
//  * SyncBus — the reliable round-synchronous reference bus
//    (dist/sim_network.hpp): one atomic delivery step per round.
//  * Async   — AlphaSynchronizer over the asynchronous lossy wire, one
//    physical processor per demand (identity placement).
//  * Sharded — AlphaSynchronizer over a live ShardPlacement: arrivals
//    are placed locality-aware onto `async.shardProcessors` processors,
//    departures tombstoned and compacted (net/shard.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/plane_transport.hpp"
#include "net/synchronizer.hpp"

namespace treesched {

enum class LiveTransportKind : std::uint8_t { SyncBus, Async, Sharded };

struct LiveTransportConfig {
  LiveTransportKind kind = LiveTransportKind::SyncBus;
  /// Wire behaviour of the Async/Sharded kinds (link latency/loss, seed,
  /// shardProcessors for Sharded; `strategy` is ignored — live pools
  /// place by network anchor). Unused by SyncBus.
  AsyncConfig async;
};

/// Builds a live transport over `numDemands` isolated pool demands.
/// `access[d]` lists the networks demand d may use — the locality signal
/// of the Sharded kind (SyncBus/Async ignore it). Sharded with
/// `async.shardProcessors <= 0` defaults to max(1, numDemands / 8)
/// processors.
std::unique_ptr<PlaneTransport> makeLiveTransport(
    std::int32_t numDemands,
    const std::vector<std::vector<std::int32_t>>& access,
    const LiveTransportConfig& config);

/// Human-readable kind name ("sync", "async", "sharded").
const char* liveTransportKindName(LiveTransportKind kind);

/// Parses a kind name; throws CheckError on anything else.
LiveTransportKind parseLiveTransportKind(const std::string& name);

}  // namespace treesched
