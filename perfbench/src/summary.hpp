// Summary statistics and schedule digests for perfbench.
//
// Header-only and free of treesched dependencies so the unit test
// (perfbench/tests/summary_test.cpp) exercises exactly what perfbench
// reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile, q in [0, 1] (the "type 7" rule of R
/// and numpy's default): position h = (n - 1) q between the two nearest
/// order statistics. Throws on an empty sample so no metric is ever
/// silently reported as zero.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no values");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q outside [0,1]");
  std::sort(values.begin(), values.end());
  const double h = static_cast<double>(values.size() - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("mean of no values");
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// a / b, or `fallback` when b is zero (ratios over empty denominators).
inline double ratio(double a, double b, double fallback = 0.0) {
  return b != 0.0 ? a / b : fallback;
}

/// 64-bit FNV-1a over a stream of integers and doubles (bit patterns), so
/// two runs' schedules can be compared by one hex string.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (v >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
