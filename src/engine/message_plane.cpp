#include "engine/message_plane.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace treesched {

MessagePlane::MessagePlane(std::int32_t numProcessors)
    : index_(numProcessors) {
  checkThat(numProcessors > 0, "message plane needs processors", __FILE__,
            __LINE__);
}

void MessagePlane::stage(std::int32_t dest, const Message& message) {
  checkIndex(dest, numProcessors(), "MessagePlane::stage dest");
  if (staged_.size() == staged_.capacity()) {
    noteGrowth();
  }
  staged_.push_back({message, {}, dest});
}

void MessagePlane::stageFanout(const Message& message,
                               std::span<const std::int32_t> dests) {
  if (dests.empty()) return;
  if (staged_.size() == staged_.capacity()) {
    noteGrowth();
  }
  staged_.push_back({message, dests, 0});
}

std::int64_t MessagePlane::stagedCount() const {
  std::int64_t rows = 0;
  for (const Staged& entry : staged_) {
    rows += static_cast<std::int64_t>(entry.dests().size());
  }
  return rows;
}

void MessagePlane::deliver() {
  // Retire the previous round's inboxes (touched destinations only).
  index_.reset();
  kindCount_.fill(0);

  if (!staged_.empty()) {
    for (const Staged& entry : staged_) {
      const auto dests = entry.dests();
      for (const std::int32_t dest : dests) {
        checkIndex(dest, numProcessors(), "MessagePlane dest");
        index_.count(dest);
      }
      kindCount_[static_cast<std::size_t>(entry.message.kind)] +=
          static_cast<std::int64_t>(dests.size());
    }
    index_.layout();
    if (static_cast<std::size_t>(index_.total()) > delivered_.capacity()) {
      noteGrowth();
    }
    if (static_cast<std::size_t>(index_.total()) > delivered_.size()) {
      delivered_.resize(static_cast<std::size_t>(index_.total()));
    }

    // Stable scatter straight into the flat delivery buffer: every
    // segment receives its messages in staging order.
    for (const Staged& entry : staged_) {
      for (const std::int32_t dest : entry.dests()) {
        delivered_[static_cast<std::size_t>(index_.place(dest))] =
            entry.message;
      }
    }
    index_.finish();

    // A subsequence of a canonically ordered list is canonically ordered,
    // so only a round staged out of order needs its segments sorted.
    const auto messageLess = [](const Staged& a, const Staged& b) {
      return canonicalMessageLess(a.message, b.message);
    };
    const bool canonical =
        std::is_sorted(staged_.begin(), staged_.end(), messageLess);
    staged_.clear();
    if (!canonical) {
      // Segments are disjoint, so the sorts parallelize with no merge step.
      const auto sortSegment = [this](std::int32_t dest) {
        const auto begin = delivered_.begin() + index_.begin(dest);
        std::sort(begin, begin + index_.length(dest), canonicalMessageLess);
      };
      const auto touched = index_.touched();
      if (runner_ != nullptr && runner_->threads() > 1) {
        const ParallelRunner::ShardPlan plan =
            runner_->plan(static_cast<std::int64_t>(touched.size()));
        runner_->forShards(plan, [&](std::int32_t shard) {
          const std::int64_t end = plan.end(shard);
          for (std::int64_t t = plan.begin(shard); t < end; ++t) {
            sortSegment(touched[static_cast<std::size_t>(t)]);
          }
        });
      } else {
        for (const std::int32_t dest : touched) {
          sortSegment(dest);
        }
      }
    }
  }
  ++rounds_;
}

void MessagePlane::clearInboxes() {
  checkThat(!hasStaged(), "clearInboxes must not drop staged messages",
            __FILE__, __LINE__);
  index_.reset();
}

}  // namespace treesched
