// The telemetry plane (src/obs/) must be read-only: attaching a live
// trace sink and a metrics registry changes nothing about the schedule,
// the NullSink path adds zero hot-loop heap allocations, histogram
// percentiles agree with a sorted-sample oracle, and the registry's
// counters cross-check against the run-level result fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "gen/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "online/churn_engine.hpp"

// ---- Process-wide allocation counter (bench_parallel discipline) ------
// Each tests/*.cpp is its own binary, so replacing the global operator
// new here observes every heap allocation of this test process only.

namespace {
std::atomic<std::int64_t> gHeapAllocs{0};
}  // namespace

void* operator new(std::size_t size) {
  gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow variants must route through the same counter/allocator:
// libstdc++'s std::stable_sort temporary buffer allocates via
// nothrow new but frees via plain delete — leaving these to the
// default operator new trips ASan's alloc-dealloc-mismatch and lets
// allocations escape the count.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  gHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size > 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}

// Out of line: once gcc inlines these, it sees free() on a pointer from
// operator new and reports -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace treesched {
namespace {

TreeProblem testTree(std::uint64_t seed) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = 28;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = 26;
  cfg.demands.accessProbability = 0.7;
  return makeTreeScenario(cfg);
}

LineProblem testLine(std::uint64_t seed) {
  LineScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numSlots = 64;
  cfg.numResources = 3;
  cfg.demands.numDemands = 30;
  return makeLineScenario(cfg);
}

/// The bit-identity footprint of a run.
struct Fingerprint {
  std::vector<InstanceId> instances;
  double profit;
  double dualObjective;
  std::int64_t rounds;
  std::int64_t messages;
  std::int64_t raises;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprintOf(const DistributedResult& r) {
  return {r.solution.instances, r.profit,           r.dualObjective,
          r.network.rounds,     r.network.messages, r.raises};
}

TEST(Telemetry, LiveSinkBitIdentityAcrossThreads) {
  for (const std::uint64_t seed : {11ULL, 12ULL}) {
    const TreeProblem tree = testTree(seed);
    const LineProblem line = testLine(seed + 100);
    for (const std::int32_t threads : {1, 8}) {
      DistributedOptions plain;
      plain.seed = seed + 1;
      plain.threads = threads;
      const Fingerprint treePlain =
          fingerprintOf(runDistributedUnitTree(tree, plain));
      const Fingerprint linePlain =
          fingerprintOf(runDistributedUnitLine(line, plain));

      const std::string path = "telemetry_bitid_" + std::to_string(seed) +
                               "_" + std::to_string(threads) + ".json";
      ChromeTraceSink sink(path);
      Tracer tracer(&sink);
      MetricsRegistry metrics;
      DistributedOptions traced = plain;
      traced.tracer = &tracer;
      traced.metrics = &metrics;
      const Fingerprint treeTraced =
          fingerprintOf(runDistributedUnitTree(tree, traced));
      const Fingerprint lineTraced =
          fingerprintOf(runDistributedUnitLine(line, traced));
      sink.close();

      EXPECT_EQ(treeTraced, treePlain)
          << "tree seed " << seed << " threads " << threads;
      EXPECT_EQ(lineTraced, linePlain)
          << "line seed " << seed << " threads " << threads;
      EXPECT_GT(sink.eventCount(), 0u) << "the sink actually recorded";
      std::remove(path.c_str());
    }
  }
}

TEST(Telemetry, RegistryCountersMatchRunResult) {
  const TreeProblem tree = testTree(21);
  MetricsRegistry metrics;
  DistributedOptions opt;
  opt.seed = 22;
  opt.metrics = &metrics;
  const DistributedResult result = runDistributedUnitTree(tree, opt);

  EXPECT_EQ(metrics.counter("protocol.active_steps").value(),
            result.activeSteps);
  EXPECT_EQ(metrics.counter("protocol.raises").value(), result.raises);
  EXPECT_EQ(metrics.counter("protocol.accepts").value() +
                metrics.counter("protocol.rejects").value(),
            result.raises)
      << "phase 2 pops every raise exactly once";
  EXPECT_EQ(metrics.counter("protocol.accepts").value(),
            static_cast<std::int64_t>(result.solution.instances.size()));
  EXPECT_EQ(metrics.counter("protocol.crash_events").value(), 0);
  EXPECT_EQ(metrics.counter("net.rounds").value(), result.network.rounds);
  EXPECT_EQ(metrics.counter("net.busy_rounds").value(),
            result.network.busyRounds);
  EXPECT_EQ(metrics.counter("net.messages").value(),
            result.network.messages);
  EXPECT_EQ(metrics.histogram("protocol.mis_size",
                              Histogram::exponentialBuckets(1, 2, 18))
                .count(),
            result.activeSteps);
}

TEST(Telemetry, HistogramPercentilesMatchSortedOracle) {
  // Deterministic integer samples in [0, 96): unit buckets make the
  // nearest-rank percentile exact, so the oracle comparison is equality.
  std::vector<double> samples;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    samples.push_back(static_cast<double>(x % 96));
  }
  const std::vector<double> bounds = Histogram::unitBuckets(128);
  Histogram hist(bounds);
  for (const double s : samples) hist.record(s);

  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto oracle = [&sorted](double q) {
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(q * static_cast<double>(sorted.size()))));
    return sorted[static_cast<std::size_t>(rank - 1)];
  };
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(hist.percentile(q), oracle(q)) << "q = " << q;
  }
  EXPECT_EQ(hist.count(), static_cast<std::int64_t>(samples.size()));
  EXPECT_EQ(hist.min(), sorted.front());
  EXPECT_EQ(hist.max(), sorted.back());

  // Exponential buckets: the percentile is an upper-bound estimate —
  // never below the oracle sample, never above the next bucket bound
  // (clamped to the observed max).
  Histogram coarse(Histogram::exponentialBuckets(1, 2, 12));
  for (const double s : samples) coarse.record(s);
  for (const double q : {0.5, 0.9, 0.99}) {
    const double estimate = coarse.percentile(q);
    EXPECT_GE(estimate, oracle(q)) << "q = " << q;
    EXPECT_LE(estimate, std::max(2 * oracle(q), 1.0)) << "q = " << q;
    EXPECT_LE(estimate, coarse.max()) << "q = " << q;
  }
}

TEST(Telemetry, JsonAndDescribeListEveryInstrumentExactlyOnce) {
  // describe()/toJson() round-trip: every registered instrument appears
  // exactly once in both snapshots, including names that are strict
  // prefixes of other names (the per-reason reject counters hang off
  // "protocol.rejects", so prefix hygiene is load-bearing).
  MetricsRegistry metrics;
  metrics.counter("rt.alpha").add(3);
  metrics.counter("rt.alpha.child").add(1);
  metrics.counter("rt.beta");
  metrics.gauge("rt.level").set(2.5);
  metrics.gauge("rt.level.fine").set(-1.0);
  metrics.histogram("rt.latency", Histogram::unitBuckets(8)).record(3);
  metrics.histogram("rt.latency.coarse", Histogram::exponentialBuckets(1, 2, 4))
      .record(5);

  const auto occurrences = [](const std::string& text,
                              const std::string& needle) {
    std::int64_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };

  const std::string json = metrics.toJson();
  const std::string described = metrics.describe();
  for (const std::string name :
       {"rt.alpha", "rt.alpha.child", "rt.beta", "rt.level", "rt.level.fine",
        "rt.latency", "rt.latency.coarse"}) {
    EXPECT_EQ(occurrences(json, "\"" + name + "\""), 1) << name;
  }
  for (const std::string name :
       {"rt.alpha", "rt.alpha.child", "rt.beta", "rt.level", "rt.level.fine"}) {
    EXPECT_EQ(occurrences(described, "  " + name + " = "), 1) << name;
  }
  for (const std::string name : {"rt.latency", "rt.latency.coarse"}) {
    EXPECT_EQ(occurrences(described, "  " + name + ": count="), 1) << name;
  }
  // The histogram summary object carries its exact count.
  EXPECT_NE(json.find("\"rt.latency\": {\"count\": 1"), std::string::npos);
}

TEST(Telemetry, ExponentialBucketQuantilesMatchBucketMappedOracle) {
  // Non-unit buckets: the reported percentile must equal the nearest-
  // rank sample mapped to its bucket's inclusive upper bound (clamped
  // to the observed max) — the strongest statement a fixed-bucket
  // sketch can make, checked as exact equality rather than a band.
  const std::vector<double> bounds = Histogram::exponentialBuckets(1, 3, 9);
  Histogram hist(bounds);
  std::vector<double> samples;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    samples.push_back(static_cast<double>(x % 30000));
  }
  for (const double s : samples) hist.record(s);

  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const auto bucketMapped = [&](double q) {
    const auto rank = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::ceil(q * static_cast<double>(sorted.size()))));
    const double s = sorted[static_cast<std::size_t>(rank - 1)];
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), s);
    return it == bounds.end() ? sorted.back() : std::min(*it, sorted.back());
  };
  for (const double q :
       {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(hist.percentile(q), bucketMapped(q)) << "q = " << q;
  }
  EXPECT_EQ(hist.count(), static_cast<std::int64_t>(samples.size()));
}

TEST(Telemetry, NullSinkPathAddsZeroAllocations) {
  const TreeProblem tree = testTree(31);
  DistributedOptions plain;
  plain.seed = 32;

  const auto measure = [&](const DistributedOptions& opt) {
    const std::int64_t before = gHeapAllocs.load(std::memory_order_relaxed);
    runDistributedUnitTree(tree, opt);
    return gHeapAllocs.load(std::memory_order_relaxed) - before;
  };

  // Warm both paths once: the first instrumented run pays the one-time
  // instrument resolution (registry map nodes), then the registry holds
  // stable references and re-resolution is a transparent lookup.
  NullTraceSink nullSink;
  Tracer tracer(&nullSink);
  MetricsRegistry metrics;
  DistributedOptions instrumented = plain;
  instrumented.tracer = &tracer;
  instrumented.metrics = &metrics;
  measure(plain);
  measure(instrumented);

  const std::int64_t base = measure(plain);
  const std::int64_t withTelemetry = measure(instrumented);
  EXPECT_EQ(withTelemetry, base)
      << "a disabled tracer plus a warmed registry must be exactly "
         "allocation-neutral";
}

TEST(Telemetry, NullSinkZeroAllocationsCoversRebalanceInstruments) {
  // Same gate as above, over the surface PR 8 added: a sharded churn run
  // with epoch-boundary rebalancing enabled exercises
  // net.shard_hosted_demands + net.shard_load_variance (synchronizer)
  // and engine.claims (parallel runner) every epoch.
  // After one warm instrumented run, the instrumented replay must be
  // exactly allocation-neutral against the plain replay.
  const ChurnTreeScenario scenario = makeHotspotTree50k(41, 72);
  ArrivalConfig arrivals = scenario.arrivals;
  arrivals.horizon = 48.0;
  const ChurnTrace trace =
      generateChurnTrace(arrivals, scenario.pool.access);

  ChurnEngineConfig base;
  base.epochLength = 8.0;
  base.solver.seed = 42;
  base.solver.epsilon = 0.35;
  base.solver.misRoundBudget = 4;
  base.solver.stepsPerStage = 2;
  base.solver.threads = 1;
  base.solver.rebalance.enabled = true;
  base.solver.rebalance.seed = 43;
  base.transport.kind = LiveTransportKind::Sharded;
  base.transport.async.shardProcessors = 5;

  const auto measure = [&](const ChurnEngineConfig& config) {
    // The universe build sits outside the measured window; it is
    // deterministic, so both paths would count it equally anyway.
    DynamicUniverse universe = makeDynamicTreeUniverse(scenario.pool);
    const std::int64_t before = gHeapAllocs.load(std::memory_order_relaxed);
    const ChurnRunResult run = runChurnOverTrace(universe, trace, config);
    const std::int64_t delta =
        gHeapAllocs.load(std::memory_order_relaxed) - before;
    // The gate is non-vacuous only if rebalancing actually ran.
    EXPECT_GT(run.totalDemandsMigrated, 0);
    return delta;
  };

  NullTraceSink nullSink;
  Tracer tracer(&nullSink);
  MetricsRegistry metrics;
  ChurnEngineConfig instrumented = base;
  instrumented.solver.tracer = &tracer;
  instrumented.solver.metrics = &metrics;
  measure(base);
  measure(instrumented);

  const std::int64_t plainAllocs = measure(base);
  const std::int64_t withTelemetry = measure(instrumented);
  EXPECT_EQ(withTelemetry, plainAllocs)
      << "the rebalance + shard-claim instruments must stay "
         "allocation-free on the warmed NullSink path";
  // The new instruments actually recorded.
  EXPECT_GT(metrics.histogram("net.shard_hosted_demands", {}).count(), 0);
  EXPECT_GT(metrics.counter("engine.claims").value(), 0);
}

TEST(Telemetry, EpochSeriesIsByteIdenticalAcrossRuns) {
  // The registry reproduces bit for bit: two runs of one churn trace at
  // 2 threads write byte-identical per-epoch series. So it holds no
  // wall-clock time and no steal count, which depends on which thread
  // wins each race.
  const ChurnTreeScenario scenario = makeHotspotTree50k(61, 96);
  ArrivalConfig arrivals = scenario.arrivals;
  arrivals.horizon = 48.0;
  const ChurnTrace trace = generateChurnTrace(arrivals, scenario.pool.access);

  const auto seriesOf = [&] {
    MetricsRegistry metrics;
    EpochSeries series(metrics);
    ChurnEngineConfig config;
    config.epochLength = 8.0;
    config.solver.seed = 62;
    config.solver.threads = 2;
    config.solver.metrics = &metrics;
    config.solver.series = &series;
    config.transport.kind = LiveTransportKind::Sharded;
    config.transport.async.shardProcessors = 6;
    DynamicUniverse universe = makeDynamicTreeUniverse(scenario.pool);
    runChurnOverTrace(universe, trace, config);
    EXPECT_GT(series.snapshots(), 1);
    return series.jsonl();
  };
  const std::string first = seriesOf();
  EXPECT_EQ(seriesOf(), first);
}

/// In-memory sink tallying complete spans by name.
class SpanTally final : public TraceSink {
 public:
  void event(const TraceEvent& e) override {
    if (e.ph == 'X') ++spans_[e.name];
  }
  std::int64_t spans(const std::string& name) const {
    const auto it = spans_.find(name);
    return it == spans_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, std::int64_t> spans_;
};

/// Counts the protocol's raises and phase-2 pops (accepts + rejects).
class RaiseCounter final : public ProtocolObserver {
 public:
  void onEvent(const LedgerEvent& event) override {
    switch (event.kind) {
      case LedgerEventKind::DualRaise:
        ++raises;
        break;
      case LedgerEventKind::Admitted:
      case LedgerEventKind::Rejected:
        ++pops;
        break;
      default:
        break;
    }
  }

  std::int64_t raises = 0;
  std::int64_t pops = 0;
};

TEST(Telemetry, OnlineEpochsRunPhase1Only) {
  // Online admission is the centralized pop over the persistent stack,
  // so an epoch's protocol run stops after phase 1: no phase-2 accept,
  // reject or span is ever reported, yet demands are admitted. The
  // solver's observer sees every epoch's phase-1 raises.
  const ChurnTreeScenario scenario = makeFlashCrowdTree50k(51, 96);
  ArrivalConfig arrivals = scenario.arrivals;
  arrivals.horizon = 48.0;
  const ChurnTrace trace =
      generateChurnTrace(arrivals, scenario.pool.numDemands());

  SpanTally sink;
  Tracer tracer(&sink);
  MetricsRegistry metrics;
  RaiseCounter observer;
  ChurnEngineConfig config;
  config.epochLength = 8.0;
  config.solver.seed = 52;
  config.solver.tracer = &tracer;
  config.solver.metrics = &metrics;
  config.solver.observer = &observer;
  DynamicUniverse universe = makeDynamicTreeUniverse(scenario.pool);
  const ChurnRunResult run = runChurnOverTrace(universe, trace, config);

  EXPECT_GT(sink.spans("phase1"), 0);
  EXPECT_EQ(sink.spans("phase2"), 0);
  EXPECT_EQ(metrics.counter("protocol.accepts").value(), 0);
  EXPECT_EQ(metrics.counter("protocol.rejects").value(), 0);
  EXPECT_GT(metrics.counter("online.admitted_demands").value(), 0);
  std::int64_t raises = 0;
  for (const EpochOutcome& epoch : run.epochs) raises += epoch.raises;
  EXPECT_GT(raises, 0);
  EXPECT_EQ(observer.raises, raises);
  EXPECT_EQ(observer.pops, 0);
}

TEST(Telemetry, DisabledTracerEmitsNothing) {
  NullTraceSink sink;
  Tracer tracer(&sink);
  EXPECT_FALSE(tracer.enabled());
  tracer.instant("x", "test", 0, {{"k", 1}});
  tracer.span("y", "test", 0, 0, {});
  // A null-sink tracer never forwards; a live sink sees every event.
  ChromeTraceSink live("telemetry_live_check.json");
  Tracer liveTracer(&live);
  EXPECT_TRUE(liveTracer.enabled());
  liveTracer.instant("x", "test", 0, {{"k", 1}});
  EXPECT_EQ(live.eventCount(), 1u);
  live.close();
  std::remove("telemetry_live_check.json");
}

}  // namespace
}  // namespace treesched
