// Unit test of the perfbench summary helpers (quantile, median, mean,
// ratio, digest). Plain main: exits non-zero when any check fails.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "../src/summary.hpp"

namespace {

int failures = 0;

void expectNear(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12) {
    std::fprintf(stderr, "FAIL %s: got %.17g want %.17g\n", what, got, want);
    ++failures;
  }
}

void expectTrue(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++failures;
  }
}

template <typename F>
void expectThrows(F f, const char* what) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return;
  }
  std::fprintf(stderr, "FAIL %s: no exception\n", what);
  ++failures;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Matches Python's statistics.quantiles(..., method="inclusive") and
  // numpy.percentile's default on the same samples.
  const std::vector<double> ten = {7, 1, 9, 3, 5, 2, 8, 4, 10, 6};
  expectNear(quantile(ten, 0.0), 1.0, "q0 is the minimum");
  expectNear(quantile(ten, 1.0), 10.0, "q1 is the maximum");
  expectNear(median(ten), 5.5, "even-count median interpolates");
  expectNear(quantile(ten, 0.9), 9.1, "p90 interpolates");
  expectNear(quantile(ten, 0.25), 3.25, "first quartile");
  expectNear(median({4.0, 1.0, 3.0}), 3.0, "odd-count median");
  expectNear(quantile({2.5}, 0.99), 2.5, "single sample");
  expectNear(mean({1.0, 2.0, 6.0}), 3.0, "mean");
  expectNear(ratio(3.0, 4.0), 0.75, "ratio");
  expectNear(ratio(3.0, 0.0, 1.0), 1.0, "ratio fallback on zero");
  expectThrows([] { quantile({}, 0.5); }, "empty quantile throws");
  expectThrows([] { quantile({1.0}, 1.5); }, "q > 1 throws");
  expectThrows([] { mean({}); }, "empty mean throws");

  Digest a;
  Digest b;
  a.add(std::uint64_t{42});
  a.add(0.5);
  b.add(std::uint64_t{42});
  b.add(0.5);
  expectTrue(a.value() == b.value(), "digest is deterministic");
  Digest c;
  c.add(0.5);
  c.add(std::uint64_t{42});
  expectTrue(a.value() != c.value(), "digest depends on order");
  Digest d;
  d.add(std::uint64_t{42});
  d.add(-0.5);
  expectTrue(a.value() != d.value(), "digest sees the double's bits");

  if (failures == 0) std::puts("summary_test: all checks passed");
  return failures == 0 ? 0 : 1;
}
