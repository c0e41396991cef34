// Stable counting-sort segment bookkeeping of the MessagePlane's flat
// delivery buffer (engine/message_plane.hpp): rows keyed by an integer in
// [0, numKeys) are scattered into contiguous per-key segments of one flat
// buffer the caller owns. The index is fully preallocated at
// construction, so steady-state rounds perform no heap allocation here.
//
// A round costs O(rows + numKeys/64): count() sets its key's bit in a
// bitmap (unconditionally: a branch on "first touch" mispredicts on
// dense rounds), and layout() reads the touched keys out of it in
// ascending order, clearing it as it goes, so no round sorts its keys.
//
// Usage per round:
//   index.reset();                        // retires the last round
//   for each row: index.count(key(row));
//   index.layout();                       // touched() is now ascending
//   buffer.resize(index.total());
//   for each row: buffer[index.place(key(row))] = row;  // same order
//   index.finish();                       // publishes the lengths
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace treesched {

class CollationIndex {
 public:
  explicit CollationIndex(std::int32_t numKeys)
      : begin_(static_cast<std::size_t>(numKeys), 0),
        length_(static_cast<std::size_t>(numKeys), 0),
        counts_(static_cast<std::size_t>(numKeys), 0),
        cursor_(static_cast<std::size_t>(numKeys), 0),
        touchedBits_((static_cast<std::size_t>(numKeys) + 63) / 64, 0) {
    touched_.reserve(static_cast<std::size_t>(numKeys));
  }

  std::int32_t numKeys() const {
    return static_cast<std::int32_t>(length_.size());
  }

  /// Retires the previous round's segments (touched keys only — a round
  /// with no rows costs O(1)).
  void reset() {
    for (const std::int32_t key : touched_) {
      length_[static_cast<std::size_t>(key)] = 0;
    }
    touched_.clear();
    total_ = 0;
  }

  void count(std::int32_t key) {
    const auto idx = static_cast<std::size_t>(key);
    ++counts_[idx];
    touchedBits_[idx / 64] |= std::uint64_t{1} << (idx % 64);
  }

  /// Computes the segment layout from the counts; call once after the
  /// counting pass.
  void layout() {
    std::int32_t offset = 0;
    for (std::size_t word = 0; word < touchedBits_.size(); ++word) {
      std::uint64_t bits = touchedBits_[word];
      if (bits == 0) continue;
      touchedBits_[word] = 0;
      for (; bits != 0; bits &= bits - 1) {
        const std::size_t idx =
            word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        touched_.push_back(static_cast<std::int32_t>(idx));
        begin_[idx] = offset;
        cursor_[idx] = offset;
        offset += counts_[idx];
      }
    }
    total_ = offset;
  }

  /// Target slot of the next row with this key (stable: rows of one key
  /// keep their scatter order).
  std::int32_t place(std::int32_t key) {
    return cursor_[static_cast<std::size_t>(key)]++;
  }

  /// Publishes the segment lengths and rearms the counts; call once
  /// after the scatter pass.
  void finish() {
    for (const std::int32_t key : touched_) {
      const auto idx = static_cast<std::size_t>(key);
      length_[idx] = counts_[idx];
      counts_[idx] = 0;
    }
  }

  /// Keys with a non-empty segment, ascending (valid after layout()).
  std::span<const std::int32_t> touched() const { return touched_; }

  std::int64_t total() const { return total_; }
  std::int32_t begin(std::int32_t key) const {
    return begin_[static_cast<std::size_t>(key)];
  }
  std::int32_t length(std::int32_t key) const {
    return length_[static_cast<std::size_t>(key)];
  }

 private:
  std::vector<std::int32_t> begin_;   ///< per key, into the flat buffer
  std::vector<std::int32_t> length_;  ///< per key
  std::vector<std::int32_t> counts_;  ///< scratch; zero between rounds
  std::vector<std::int32_t> cursor_;  ///< scratch scatter cursors
  /// Scratch: one bit per key counted this round; zero between rounds.
  std::vector<std::uint64_t> touchedBits_;
  std::vector<std::int32_t> touched_;  ///< active keys, ascending
  std::int64_t total_ = 0;
};

}  // namespace treesched
