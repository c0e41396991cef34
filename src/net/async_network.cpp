#include "net/async_network.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace treesched {

namespace {

// Salts separating the independent hash draws of one attempt.
constexpr std::uint64_t kSaltPayloadDrop = 0x01;
constexpr std::uint64_t kSaltPayloadDelay = 0x02;
constexpr std::uint64_t kSaltAckDrop = 0x03;
constexpr std::uint64_t kSaltAckDelay = 0x04;
constexpr std::uint64_t kSaltDuplicateDraw = 0x05;
constexpr std::uint64_t kSaltDuplicateDelay = 0x06;

// With dropProbability <= 0.9 an attempt round-trips with probability
// >= 0.01, so hitting this cap indicates a broken hash stream, not luck.
constexpr std::int32_t kMaxAttempts = 10'000;

}  // namespace

AsyncNetwork::AsyncNetwork(std::int32_t numEndpoints,
                           const AsyncLinkConfig& config, std::uint64_t seed)
    : config_(config),
      seed_(seed),
      endpointLoad_(static_cast<std::size_t>(numEndpoints), 0) {
  checkThat(numEndpoints > 0, "async network needs endpoints", __FILE__,
            __LINE__);
  validateLatencyConfig(config_.latency);
  checkThat(config_.dropProbability >= 0 && config_.dropProbability <= 0.9,
            "drop probability in [0, 0.9]", __FILE__, __LINE__);
  checkThat(config_.duplicateProbability >= 0 &&
                config_.duplicateProbability <= 0.9,
            "duplicate probability in [0, 0.9]", __FILE__, __LINE__);

  // Per-link overrides: normalize to endpointA < endpointB, validate the
  // configs, reject duplicate links.
  double slowestBase = config_.latency.base;
  overrides_.reserve(config_.latencyOverrides.size());
  for (const LinkLatencyOverride& entry : config_.latencyOverrides) {
    LinkLatencyOverride normalized = entry;
    checkIndex(normalized.endpointA, numEndpoints, "latency override endpoint");
    checkIndex(normalized.endpointB, numEndpoints, "latency override endpoint");
    checkThat(normalized.endpointA != normalized.endpointB,
              "latency override needs two endpoints", __FILE__, __LINE__);
    if (normalized.endpointA > normalized.endpointB) {
      std::swap(normalized.endpointA, normalized.endpointB);
    }
    validateLatencyConfig(normalized.latency);
    slowestBase = std::max(slowestBase, normalized.latency.base);
    overrides_.push_back(normalized);
  }
  std::sort(overrides_.begin(), overrides_.end(),
            [](const LinkLatencyOverride& a, const LinkLatencyOverride& b) {
              return std::pair(a.endpointA, a.endpointB) <
                     std::pair(b.endpointA, b.endpointB);
            });
  for (std::size_t i = 1; i < overrides_.size(); ++i) {
    checkThat(std::pair(overrides_[i - 1].endpointA,
                        overrides_[i - 1].endpointB) !=
                  std::pair(overrides_[i].endpointA, overrides_[i].endpointB),
              "one latency override per link", __FILE__, __LINE__);
  }

  // A timeout below one link latency would retransmit in a tight loop
  // before the first ack can possibly round-trip (and trip the attempt
  // cap); require at least the slowest link's minimum one-way delay.
  checkThat(config_.retransmitTimeout == 0 ||
                config_.retransmitTimeout >= slowestBase,
            "timeout >= every link's latency base (or 0 for auto)", __FILE__,
            __LINE__);
  timeout_ = config_.retransmitTimeout;
  if (timeout_ == 0) {
    // Auto mode derives the timeout per link from that link's own model:
    // a trans-continental override must never make the metro links wait
    // for its round trip before retransmitting (the per-link timeout fix;
    // the virtual-time regression lives in tests/net_test.cpp).
    timeout_ = 2 * latencyUpperBound(config_.latency) + config_.latency.base;
    overrideTimeout_.reserve(overrides_.size());
    for (const LinkLatencyOverride& entry : overrides_) {
      overrideTimeout_.push_back(2 * latencyUpperBound(entry.latency) +
                                 entry.latency.base);
    }
  }
}

double AsyncNetwork::timeoutFor(const Flight& flight) const {
  if (flight.latencyOverride < 0 || overrideTimeout_.empty()) {
    return timeout_;
  }
  return overrideTimeout_[static_cast<std::size_t>(flight.latencyOverride)];
}

std::int32_t AsyncNetwork::overrideIndex(std::int32_t a, std::int32_t b) const {
  if (overrides_.empty()) return -1;
  if (a > b) std::swap(a, b);
  const auto it = std::lower_bound(
      overrides_.begin(), overrides_.end(), std::pair(a, b),
      [](const LinkLatencyOverride& o, const std::pair<int, int>& key) {
        return std::pair(o.endpointA, o.endpointB) <
               std::pair(key.first, key.second);
      });
  if (it == overrides_.end() || it->endpointA != a || it->endpointB != b) {
    return -1;
  }
  return static_cast<std::int32_t>(it - overrides_.begin());
}

const LatencyConfig& AsyncNetwork::linkLatency(const Flight& flight) const {
  if (flight.latencyOverride < 0) return config_.latency;
  return overrides_[static_cast<std::size_t>(flight.latencyOverride)].latency;
}

bool AsyncNetwork::chance(double probability, std::uint64_t packetId,
                          std::int32_t attempt, std::uint64_t salt) const {
  if (probability <= 0) return false;
  const std::uint64_t h = keyedHash(seed_, packetId,
                                    static_cast<std::uint64_t>(attempt), salt);
  return unitInterval(h) < probability;
}

double AsyncNetwork::delay(const Flight& flight, std::int32_t attempt,
                           std::uint64_t salt) const {
  const std::uint64_t h = keyedHash(seed_, flight.id,
                                    static_cast<std::uint64_t>(attempt), salt);
  return sampleLatency(linkLatency(flight), unitInterval(h));
}

void AsyncNetwork::send(std::int32_t from, std::int32_t to,
                        const Message& payload, bool control) {
  checkIndex(from, numEndpoints(), "AsyncNetwork::send from");
  checkIndex(to, numEndpoints(), "AsyncNetwork::send to");
  checkThat(from != to, "no self links", __FILE__, __LINE__);
  Flight flight;
  flight.from = from;
  flight.to = to;
  flight.payload = payload;
  flight.control = control;
  flight.id = nextPacketId_++;
  flight.latencyOverride = overrideIndex(from, to);
  flights_.push_back(flight);
}

double AsyncNetwork::runFlight(const Flight& flight, double start) {
  const double timeout = timeoutFor(flight);
  // The one pending retransmit timer: attempt `attempt` at `timerAt`,
  // scheduled `timerSeq`-th on this timeline. Each attempt re-arms it.
  std::int32_t attempt = 0;
  double timerAt = start;
  std::uint32_t timerSeq = 0;
  std::uint32_t nextSeq = 1;
  bool delivered = false;
  bool acked = false;
  double last = start;
  arrivals_.clear();
  const auto schedule = [&](double time, ArrivalKind kind,
                            std::int32_t sentBy) {
    arrivals_.push_back({time, nextSeq++, kind, sentBy});
    std::push_heap(arrivals_.begin(), arrivals_.end(), ArrivalAfter{});
  };
  for (;;) {
    // The timer fires unless the ack has landed (the timer is cancelled
    // and never reaches the clock) or an arrival comes first.
    if (!acked &&
        (arrivals_.empty() ||
         ArrivalAfter{}(arrivals_.front(), {timerAt, timerSeq}))) {
      checkThat(attempt < kMaxAttempts, "retransmission cap", __FILE__,
                __LINE__);
      last = timerAt;
      ++transmissions_;
      if (flight.control) ++markerTransmissions_;
      if (attempt > 0) ++retransmissions_;
      if (chance(config_.dropProbability, flight.id, attempt,
                 kSaltPayloadDrop)) {
        ++drops_;
      } else {
        schedule(timerAt + delay(flight, attempt, kSaltPayloadDelay),
                 ArrivalKind::Deliver, attempt);
      }
      timerAt += timeout;
      timerSeq = nextSeq++;
      ++attempt;
      continue;
    }
    if (arrivals_.empty()) break;
    std::pop_heap(arrivals_.begin(), arrivals_.end(), ArrivalAfter{});
    const Arrival arrival = arrivals_.back();
    arrivals_.pop_back();
    last = arrival.time;
    if (arrival.kind == ArrivalKind::Ack) {
      acked = true;
      continue;
    }
    if (!delivered) {
      delivered = true;
      ++endpointLoad_[static_cast<std::size_t>(flight.to)];
      if (!flight.control) {
        log_.push_back({flight.from, flight.to, flight.payload});
      }
      // Duplicating-link fault: the same packet arrives once more a
      // little later; the dedup branch below absorbs it.
      if (arrival.kind == ArrivalKind::Deliver &&
          chance(config_.duplicateProbability, flight.id, arrival.attempt,
                 kSaltDuplicateDraw)) {
        schedule(arrival.time +
                     delay(flight, arrival.attempt, kSaltDuplicateDelay),
                 ArrivalKind::DuplicateDeliver, arrival.attempt);
      }
    } else {
      // Dedup path: retransmission races and duplicating links.
      ++duplicates_;
    }
    // Duplicates are acked too, else a lost first ack livelocks.
    if (chance(config_.dropProbability, flight.id, arrival.attempt,
               kSaltAckDrop)) {
      ++drops_;
    } else {
      schedule(arrival.time + delay(flight, arrival.attempt, kSaltAckDelay),
               ArrivalKind::Ack, arrival.attempt);
    }
  }
  return last;
}

double AsyncNetwork::flush() {
  const double start = now_;
  for (const Flight& flight : flights_) {
    now_ = std::max(now_, runFlight(flight, start));
  }
  flights_.clear();
  return now_;
}

void AsyncNetwork::advanceTime(double delta) {
  checkThat(delta >= 0, "time advances forward", __FILE__, __LINE__);
  checkThat(flights_.empty(), "advanceTime with traffic in flight", __FILE__,
            __LINE__);
  now_ += delta;
}

}  // namespace treesched
