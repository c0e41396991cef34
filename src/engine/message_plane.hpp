// Flat message plane: the allocation-free inbox hot path.
//
// The first-generation transports kept one std::vector<Message> mailbox
// per processor and re-sorted each of them every round — at production
// scale that is millions of small heap allocations and cache-hostile
// scattered mailboxes. The MessagePlane replaces all of them with one
// preallocated flat buffer, and a round costs O(messages):
//
//  * Staging is one list in call order. Each entry is a message plus its
//    destinations: the borrowed adjacency span of a broadcast fan-out
//    (stageFanout), or the single destination of stage().
//  * deliver() counts every destination (engine/collate.hpp: touched
//    destinations only, read back ascending from a bitmap, so a silent
//    round costs O(1)) and scatters each entry's message straight into
//    the destinations' contiguous segments of the delivery buffer.
//  * The Transport contract wants every inbox in canonical (sender,
//    instance) order. A stable scatter of a canonically ordered staging
//    list already leaves every segment sorted, and the protocol engine
//    broadcasts in that order, so deliver() sorts the segments only when
//    some entry was staged before a canonically smaller one. Segment
//    sorts are independent, so an attached ParallelRunner spreads them
//    across the thread pool.
//  * inbox(p) is a zero-copy span into the flat delivery buffer.
//
// Every buffer is reused round over round: after warmup the plane
// performs zero heap allocations regardless of traffic. growthEvents()
// and lastGrowthRound() make that measurable — bench_parallel reports
// them, and the CI smoke keeps the claim honest.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dist/message.hpp"
#include "engine/collate.hpp"
#include "engine/parallel_runner.hpp"

namespace treesched {

class MessagePlane {
 public:
  explicit MessagePlane(std::int32_t numProcessors);

  std::int32_t numProcessors() const { return index_.numKeys(); }

  /// Optional thread pool for the per-destination segment sorts of a
  /// round staged out of canonical order; nullptr (the default) sorts
  /// serially. The runner must outlive the plane or be detached with
  /// attachRunner(nullptr).
  void attachRunner(ParallelRunner* runner) { runner_ = runner; }

  /// Queues `message` for the single destination `dest`.
  void stage(std::int32_t dest, const Message& message);

  /// Queues `message` for every destination in `dests`, without copying
  /// them: `dests` must stay valid (and unchanged) until deliver() —
  /// transports pass their adjacency lists, which only mutate between
  /// rounds. Destinations are range-checked at delivery.
  void stageFanout(const Message& message,
                   std::span<const std::int32_t> dests);

  bool hasStaged() const { return !staged_.empty(); }
  /// Messages the next deliver() delivers (one per destination).
  std::int64_t stagedCount() const;

  /// The round boundary: scatters the staged messages into per-destination
  /// segments in canonical order and publishes them as the new inboxes
  /// (previous inboxes are discarded). Clears the staging list.
  void deliver();

  /// Empties every inbox without delivering (silent rounds). Staging must
  /// be empty — the caller checks, because dropping staged messages would
  /// violate the Transport contract.
  void clearInboxes();

  /// Messages delivered to `p` by the last deliver(), canonically sorted.
  std::span<const Message> inbox(std::int32_t p) const {
    const std::int32_t length = index_.length(p);
    if (length == 0) {
      return {};
    }
    return {delivered_.data() + index_.begin(p),
            static_cast<std::size_t>(length)};
  }

  /// Destinations with a non-empty inbox after the last deliver(),
  /// ascending. The O(active) alternative to scanning every processor.
  std::span<const std::int32_t> activeDests() const {
    return index_.touched();
  }

  /// Messages delivered by the last deliver().
  std::int64_t deliveredCount() const { return index_.total(); }

  /// Per-kind message counts of the last deliver() — lets transports
  /// account payload in O(#kinds) instead of re-scanning every message.
  const std::array<std::int64_t, kMessageKindCount>& kindCounts() const {
    return kindCount_;
  }

  std::int64_t rounds() const { return rounds_; }

  // ---- Allocation accounting (the bench-tracked hot-loop guarantee) ----
  std::int64_t growthEvents() const { return growthEvents_; }
  /// Round index (0-based deliver() count) of the last buffer growth;
  /// -1 if no buffer ever grew. Steady state == all rounds past this one.
  std::int64_t lastGrowthRound() const { return lastGrowthRound_; }

 private:
  /// One staged message and its destinations: a borrowed fan-out span,
  /// or (when that is empty) stage()'s single `dest`.
  struct Staged {
    Message message;
    std::span<const std::int32_t> fanout;
    std::int32_t dest = 0;

    std::span<const std::int32_t> dests() const {
      return fanout.empty() ? std::span<const std::int32_t>(&dest, 1) : fanout;
    }
  };

  void noteGrowth() {
    ++growthEvents_;
    lastGrowthRound_ = rounds_;
  }

  ParallelRunner* runner_ = nullptr;

  // Staging list, in call order within a round.
  std::vector<Staged> staged_;

  // Delivery state: per-destination segments of one flat buffer (which
  // never shrinks; the index's total() is the live prefix).
  std::vector<Message> delivered_;
  CollationIndex index_;

  std::array<std::int64_t, kMessageKindCount> kindCount_{};

  std::int64_t rounds_ = 0;
  std::int64_t growthEvents_ = 0;
  std::int64_t lastGrowthRound_ = -1;
};

}  // namespace treesched
