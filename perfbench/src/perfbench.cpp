// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--revision REV]
//
// Replays one named workload through the public entry points as a closed
// loop (the next epoch batch goes to IncrementalSolver::applyEpoch only
// after the previous call returned; the one-shot solves back to back)
// for S seconds, checks every operation's output, and prints one JSON
// line {"correct", "attempted", "failed", "metrics"} last on stdout.
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
// ones, from an untraced replay, a traced replay (spans aggregated by
// an in-memory TraceSink) and a sync-bus replay of the same inputs.
// Workloads and metrics are documented in perfbench/README.md.
//
// Layers are measured from outside: by timing the benchmark's own calls
// into each module, by reading the counters the program keeps
// (NetworkStats, UniverseStats, EpochOutcome, MetricsRegistry) and by
// summing the spans it emits. Nothing inside src/ is instrumented here.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dynamic_universe.hpp"
#include "core/solution.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "dist/sim_network.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "net/latency.hpp"
#include "net/live_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/churn_engine.hpp"
#include "online/incremental.hpp"
#include "policy/config.hpp"
#include "summary.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// ---- Process-wide heap-allocation counter ------------------------------
// The bench_parallel idiom: replacing the global operator new in this
// standalone binary counts every heap allocation the program makes.

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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace treesched;
using perfbench::median;
using perfbench::quantile;
using perfbench::ratio;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

std::int64_t heapAllocs() {
  return gHeapAllocs.load(std::memory_order_relaxed);
}

/// Peak resident set size of this process (VmHWM), MiB.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ---- In-memory span aggregation ----------------------------------------

enum SpanKind : std::size_t {
  kOnlineEpoch,
  kMutate,
  kAdmit,
  kRebalance,
  kPhase1,
  kPhase2,
  kShard,
  kNumSpanKinds
};
constexpr std::array<const char*, kNumSpanKinds> kSpanNames = {
    "online_epoch", "mutate", "admit", "rebalance",
    "phase1",       "phase2", "shard"};

/// Summed span durations per kind (µs).
struct SpanTotals {
  std::array<std::int64_t, kNumSpanKinds> micros{};

  SpanTotals& operator+=(const SpanTotals& other) {
    for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
      micros[k] += other.micros[k];
    }
    return *this;
  }
  SpanTotals operator-(const SpanTotals& other) const {
    SpanTotals diff = *this;
    for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
      diff.micros[k] -= other.micros[k];
    }
    return diff;
  }
  double ms(SpanKind kind) const {
    return static_cast<double>(micros[kind]) / 1000.0;
  }
};

/// The benchmark's TraceSink: folds every complete span into running
/// per-kind totals as it arrives. Emission is synchronous on the calling
/// thread, so the totals after an applyEpoch call cover all of its spans.
/// Stores nothing per event — no allocation on the traced path.
class SpanSink final : public TraceSink {
 public:
  void event(const TraceEvent& e) override {
    if (e.ph != 'X') return;
    for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
      if (std::strcmp(e.name, kSpanNames[k]) == 0) {
        totals_.micros[k] += e.durMicros;
        return;
      }
    }
  }
  const SpanTotals& totals() const { return totals_; }

 private:
  SpanTotals totals_;
};

// ---- Workloads ---------------------------------------------------------

enum class Shape { FlashTree, DiurnalLine, HotspotTree, OneshotCdnTree };

struct Workload {
  const char* name;
  Shape shape;
  std::int32_t demands;
  LiveTransportKind wire;
  std::int32_t threads;
  /// Distinct pools (passes) per run, each replayed round-robin until the
  /// run's time is up. Online: 4 traces of 32 churn epochs, so
  /// epoch_ms_p90 has >= 10 epochs beyond it.
  std::int32_t passes;
  /// Pools the schedule-quality metrics (revenue, certified ratio, SLA)
  /// are taken over: the timed passes plus untimed sync-bus replays of
  /// further pools. A schedule is the same over every wire (the Transport
  /// contract), and hotspot's few-hundred-demand pools need many samples
  /// for a steady p99.
  std::int32_t qualityPasses;
};

constexpr Workload kWorkloads[] = {
    {"flash_tree", Shape::FlashTree, 6'250, LiveTransportKind::SyncBus, 1, 4,
     4},
    {"diurnal_line", Shape::DiurnalLine, 12'500, LiveTransportKind::SyncBus,
     1, 4, 4},
    {"hotspot_async", Shape::HotspotTree, 300, LiveTransportKind::Async, 1, 4,
     64},
    {"oneshot_cdn_tree", Shape::OneshotCdnTree, 25'000,
     LiveTransportKind::SyncBus, 2, 5, 5},
};

// Protocol parameters shared by every workload (bench_online's).
constexpr double kEpsilon = 0.3;
constexpr std::int32_t kMisRoundBudget = 4;
constexpr std::int32_t kStepsPerStage = 2;
constexpr std::uint64_t kPassSalt = 0x9e7fbe11ULL;

/// Each pass of a run replays its own pool and trace, derived from the
/// run seed and the pass index: more distinct inputs per run, the same
/// inputs for the same seed.
std::uint64_t passSeed(std::uint64_t seed, std::int32_t pass) {
  return keyedHash(seed, static_cast<std::uint64_t>(pass), kPassSalt);
}

struct SetupTimes {
  double poolMs = 0;
  double traceMs = 0;
  double universeMs = 0;
  double transportMs = 0;
  double solverMs = 0;

  double totalS() const {
    return (poolMs + traceMs + universeMs + transportMs + solverMs) / 1000.0;
  }
};

/// One pass's inputs: the pool and its epoch batches. The one-shot's
/// "trace" is two batches — every demand arriving, then every demand
/// departing — which only the standalone core replay consumes.
struct Inputs {
  std::uint64_t seed = 0;
  std::shared_ptr<const TreeProblem> tree;
  std::shared_ptr<const LineProblem> line;
  std::vector<EpochBatch> batches;
  double epochLength = 8.0;
  std::vector<double> arrivalTime;  ///< per demand, virtual time

  const std::vector<std::vector<std::int32_t>>& access() const {
    return tree != nullptr ? tree->access : line->access;
  }
  std::int32_t numDemands() const {
    return static_cast<std::int32_t>(access().size());
  }
};

Inputs buildInputs(const Workload& w, std::uint64_t seed, SetupTimes& setup) {
  Inputs in;
  in.seed = seed;
  const auto t0 = Clock::now();
  ArrivalConfig arrivals;
  switch (w.shape) {
    case Shape::FlashTree:
    case Shape::HotspotTree: {
      ChurnTreeScenario s = w.shape == Shape::FlashTree
                                ? makeFlashCrowdTree50k(seed, w.demands)
                                : makeHotspotTree50k(seed, w.demands);
      in.tree = std::make_shared<const TreeProblem>(std::move(s.pool));
      arrivals = s.arrivals;
      in.epochLength = s.epochLength;
      break;
    }
    case Shape::DiurnalLine: {
      ChurnLineScenario s = makeDiurnalMetroLine100k(seed, w.demands);
      in.line = std::make_shared<const LineProblem>(std::move(s.pool));
      arrivals = s.arrivals;
      in.epochLength = s.epochLength;
      break;
    }
    case Shape::OneshotCdnTree:
      in.tree = std::make_shared<const TreeProblem>(
          makeCdnTree250k(seed, w.demands));
      break;
  }
  const auto t1 = Clock::now();
  if (w.shape == Shape::OneshotCdnTree) {
    std::vector<DemandId> all(static_cast<std::size_t>(in.numDemands()));
    std::iota(all.begin(), all.end(), 0);
    in.batches = {EpochBatch{all, {}}, EpochBatch{{}, all}};
  } else {
    const ChurnTrace trace = generateChurnTrace(arrivals, in.access());
    in.batches = batchTrace(trace, in.epochLength);
    in.arrivalTime.resize(static_cast<std::size_t>(in.numDemands()));
    for (const ChurnEvent& event : trace.events) {
      if (event.arrival) {
        in.arrivalTime[static_cast<std::size_t>(event.demand)] = event.time;
      }
    }
  }
  const auto t2 = Clock::now();
  setup.poolMs = msBetween(t0, t1);
  setup.traceMs = msBetween(t1, t2);
  return in;
}

DynamicUniverse makeDynamic(const Inputs& in) {
  return in.tree != nullptr ? makeDynamicTreeUniverse(in.tree)
                            : makeDynamicLineUniverse(in.line);
}

/// bench_online's async wire: heavy-tail latencies, 5% loss.
LiveTransportConfig transportConfig(LiveTransportKind kind,
                                    std::uint64_t seed) {
  LiveTransportConfig config;
  config.kind = kind;
  config.async.seed = seed ^ 0x3b9ULL;
  config.async.link.latency.model = LatencyModel::HeavyTail;
  config.async.link.latency.base = 1.0;
  config.async.link.latency.tailShape = 1.5;
  config.async.link.latency.tailCap = 64.0;
  config.async.link.dropProbability = 0.05;
  config.async.link.retransmitTimeout = 16.0;
  return config;
}

OnlineSolverConfig solverConfig(const Workload& w, std::uint64_t seed) {
  OnlineSolverConfig config;
  config.seed = seed + 13;
  config.epsilon = kEpsilon;
  config.misRoundBudget = kMisRoundBudget;
  config.stepsPerStage = kStepsPerStage;
  config.threads = w.threads;
  return config;
}

/// Physical link transmissions of a run. The reliable bus has no layer
/// below the protocol: each delivery is its one transmission.
std::int64_t wireTransmissions(const NetworkStats& stats,
                               LiveTransportKind kind) {
  return kind == LiveTransportKind::SyncBus ? stats.messages
                                            : stats.transmissions;
}

std::uint64_t solutionDigest(std::int64_t op, const Solution& solution,
                             double profit) {
  perfbench::Digest digest;
  digest.add(static_cast<std::uint64_t>(op));
  for (const InstanceId i : solution.instances) {
    digest.add(static_cast<std::uint64_t>(i));
  }
  digest.add(profit);
  return digest.value();
}

// ---- Results -----------------------------------------------------------

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    metrics_.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
  void operations(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct_ && failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (std::size_t m = 0; m < metrics_.size(); ++m) {
      os << (m > 0 ? ", " : "") << "\"" << metrics_[m].name
         << "\": {\"value\": " << metrics_[m].value << ", \"unit\": \""
         << metrics_[m].unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// ---- Online replay -----------------------------------------------------

/// Telemetry attached to a traced replay.
struct Telemetry {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  const SpanSink* sink = nullptr;
};

/// Everything one closed-loop replay of a pass's batches measured.
/// Per-epoch figures cover churn epochs only (a zero-churn epoch is a
/// carry-over, not an admission decision).
struct Replay {
  SetupTimes setup;
  std::vector<double> epochMs;
  /// Wall time of the replay that supplied `spans`: the fastest whole
  /// replay once several are folded together.
  double spansWholeMs = 0;
  std::vector<std::uint64_t> digests;  ///< every epoch
  std::int64_t epochs = 0;             ///< every epoch
  std::int64_t failedEpochs = 0;
  std::int64_t arrivals = 0;
  std::int64_t allocs = 0;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t claims = 0;
  std::int64_t steals = 0;
  double resolveFractionSum = 0;
  double finalProfit = 0;
  double finalDualUpperBound = 0;
  std::uint64_t finalProtocolSeed = 0;
  std::vector<InstanceId> finalActive;
  std::vector<double> admissionEpochs;
  NetworkStats net;
  SpanTotals spans;
  std::int64_t stages = 0;
  std::int64_t activeSteps = 0;
};

Replay replayOnline(const Workload& w, const Inputs& in,
                    LiveTransportKind wire, const Telemetry& telemetry) {
  Replay r;
  const auto t0 = Clock::now();
  DynamicUniverse universe = makeDynamic(in);
  const auto t1 = Clock::now();
  const std::unique_ptr<Transport> transport = makeLiveTransport(
      universe.numDemands(), universe.access(), transportConfig(wire, in.seed));
  const auto t2 = Clock::now();
  OnlineSolverConfig config = solverConfig(w, in.seed);
  config.tracer = telemetry.tracer;
  config.metrics = telemetry.metrics;
  const auto solver =
      std::make_unique<IncrementalSolver>(universe, config, *transport);
  const auto t3 = Clock::now();
  r.setup.universeMs = msBetween(t0, t1);
  r.setup.transportMs = msBetween(t1, t2);
  r.setup.solverMs = msBetween(t2, t3);

  for (const EpochBatch& batch : in.batches) {
    const SpanTotals spansBefore =
        telemetry.sink != nullptr ? telemetry.sink->totals() : SpanTotals{};
    const std::int64_t allocsBefore = heapAllocs();
    const auto begin = Clock::now();
    const EpochOutcome outcome =
        solver->applyEpoch(batch.arrivals, batch.departures);
    const auto end = Clock::now();
    const std::int64_t allocs = heapAllocs() - allocsBefore;

    // Everything below is outside the timed window.
    ++r.epochs;
    if (!validateSolution(universe, outcome.solution).feasible) {
      ++r.failedEpochs;
    }
    r.digests.push_back(
        solutionDigest(outcome.epoch, outcome.solution, outcome.profit));
    r.finalDualUpperBound = outcome.dualUpperBound;
    r.finalProtocolSeed = outcome.protocolSeed;
    if (batch.arrivals.empty() && batch.departures.empty()) continue;
    r.epochMs.push_back(msBetween(begin, end));
    r.arrivals += outcome.arrivals;
    r.allocs += allocs;
    r.rounds += outcome.rounds;
    r.messages += outcome.messages;
    r.claims += outcome.engineClaims;
    r.steals += outcome.engineSteals;
    r.resolveFractionSum += outcome.resolveFraction;
    if (telemetry.sink != nullptr) {
      r.spans += telemetry.sink->totals() - spansBefore;
    }
  }
  r.spansWholeMs = sum(r.epochMs);
  r.finalProfit = solver->profit();
  r.finalActive = solver->activeInstanceIds();
  // Admission latency in epochs of virtual time, from the demand's
  // arrival to the end of the epoch window that admitted it.
  for (DemandId d = 0; d < universe.numDemands(); ++d) {
    const std::int64_t epochsWaited = solver->admissionLatencyEpochs(d);
    if (epochsWaited < 0) continue;
    const double arrival =
        in.arrivalTime[static_cast<std::size_t>(d)] / in.epochLength;
    r.admissionEpochs.push_back(static_cast<double>(epochsWaited) + 1.0 -
                                (arrival - std::floor(arrival)));
  }
  r.net = transport->stats();
  if (telemetry.metrics != nullptr) {
    r.stages = telemetry.metrics->counter("protocol.stages").value();
    r.activeSteps = telemetry.metrics->counter("protocol.active_steps").value();
  }
  return r;
}

/// Folds another replay of the same pass into `best`: every epoch keeps
/// its fastest time, and the spans are those of the fastest whole
/// replay. Replays of a pass do identical work (their schedules are
/// checked bit-identical) and are spread over the run, so the minimum
/// strips the host's slow phases from the measurement.
void keepFastest(Replay& best, const Replay& other) {
  const double otherWholeMs = sum(other.epochMs);
  for (std::size_t e = 0; e < best.epochMs.size(); ++e) {
    best.epochMs[e] = std::min(best.epochMs[e], other.epochMs[e]);
  }
  if (otherWholeMs < best.spansWholeMs) {
    best.spansWholeMs = otherWholeMs;
    best.spans = other.spans;
  }
}

/// From-scratch two-phase profit on the pass's final survivors — the
/// revenue comparator (bench_online's), run outside every timed window.
double scratchProfit(const Workload& w, const Inputs& in, const Replay& r) {
  const PreparedRun prepared = in.tree != nullptr
                                   ? prepareUnitTreeRun(*in.tree)
                                   : prepareUnitLineRun(*in.line);
  SchedulerConfig sched =
      SchedulerConfig::fromOnlineSolver(solverConfig(w, in.seed));
  sched.core.seed = r.finalProtocolSeed;
  return runTwoPhaseRestricted(prepared.universe, prepared.layering,
                               sched.framework(), r.finalActive)
      .profit;
}

// ---- Standalone core replay ----------------------------------------------

/// The pass's batches applied straight to a fresh DynamicUniverse, each
/// addDemand / retireDemand call timed.
struct CoreReplay {
  std::vector<double> extendUs;
  std::vector<double> gcUs;
  double extendMsTotal = 0;
  std::int64_t instancesLivePeak = 0;
  bool statsMatch = false;
};

CoreReplay replayCore(const Inputs& in) {
  CoreReplay c;
  DynamicUniverse universe = makeDynamic(in);
  for (const EpochBatch& batch : in.batches) {
    for (const DemandId d : batch.departures) {
      const auto begin = Clock::now();
      universe.retireDemand(d);
      c.gcUs.push_back(1000.0 * msBetween(begin, Clock::now()));
    }
    for (const DemandId d : batch.arrivals) {
      const auto begin = Clock::now();
      universe.addDemand(d);
      c.extendUs.push_back(1000.0 * msBetween(begin, Clock::now()));
    }
    c.instancesLivePeak = std::max<std::int64_t>(c.instancesLivePeak,
                                                 universe.numLiveInstances());
  }
  c.extendMsTotal = sum(c.extendUs) / 1000.0;
  const UniverseStats& stats = universe.stats();
  c.statsMatch =
      stats.arrivals == static_cast<std::int64_t>(c.extendUs.size()) &&
      stats.gcDemands == static_cast<std::int64_t>(c.gcUs.size());
  return c;
}

/// The core.* metrics over a run's core replays.
void reportCore(const std::vector<CoreReplay>& cores, Result& result) {
  std::vector<double> extendUs;
  std::vector<double> gcUs;
  std::int64_t livePeak = 0;
  for (const CoreReplay& c : cores) {
    extendUs.insert(extendUs.end(), c.extendUs.begin(), c.extendUs.end());
    gcUs.insert(gcUs.end(), c.gcUs.begin(), c.gcUs.end());
    livePeak = std::max(livePeak, c.instancesLivePeak);
    result.check(c.statsMatch, "core replay disagrees with UniverseStats");
  }
  result.metric("core.extend_us_per_arrival", perfbench::mean(extendUs), "us");
  result.metric("core.gc_us_per_departure", perfbench::mean(gcUs), "us");
  result.metric("core.instances_live_peak", static_cast<double>(livePeak),
                "count");
}

// ---- Run loop helpers ----------------------------------------------------

/// Round-robin schedule over a run's passes: every pass is replayed once,
/// then again in turn until `seconds` have elapsed, so each pass's
/// replays are spread over the whole run.
class Schedule {
 public:
  Schedule(double seconds, std::int32_t passes)
      : begin_(Clock::now()), seconds_(seconds), passes_(passes) {}

  /// Advances to the next replay; false once the run is over.
  bool next() {
    ++step_;
    return step_ < passes_ ||
           msBetween(begin_, Clock::now()) < 1000.0 * seconds_;
  }
  std::int32_t pass() const {
    return static_cast<std::int32_t>(step_ % passes_);
  }
  bool firstRound() const { return step_ < passes_; }

 private:
  Clock::time_point begin_;
  double seconds_;
  std::int64_t passes_;
  std::int64_t step_ = -1;
};

struct SetupSeries {
  std::vector<double> totalS, poolMs, traceMs, universeMs, transportMs,
      solverMs;

  void add(const SetupTimes& t) {
    totalS.push_back(t.totalS());
    poolMs.push_back(t.poolMs);
    traceMs.push_back(t.traceMs);
    universeMs.push_back(t.universeMs);
    transportMs.push_back(t.transportMs);
    solverMs.push_back(t.solverMs);
  }
  void report(Result& result) const {
    result.metric("setup.pool_ms", median(poolMs), "ms");
    result.metric("setup.trace_ms", median(traceMs), "ms");
    result.metric("setup.universe_ms", median(universeMs), "ms");
    result.metric("setup.transport_ms", median(transportMs), "ms");
    result.metric("setup.solver_ms", median(solverMs), "ms");
  }
};

/// Sums over one kind of replay (untraced, traced or sync-bus), one
/// fastest-of replay per pass.
struct ReplayTotals {
  std::vector<double> epochMs;
  std::vector<double> passMs;
  std::int64_t churnEpochs = 0, arrivals = 0, allocs = 0, rounds = 0,
               busyRounds = 0, messages = 0, claims = 0, steals = 0,
               transmissions = 0, retransmissions = 0, drops = 0, stages = 0,
               activeSteps = 0;
  double resolveFractionSum = 0;
  SpanTotals spans;
  perfbench::Digest digest;

  void add(const Replay& r, LiveTransportKind wire) {
    epochMs.insert(epochMs.end(), r.epochMs.begin(), r.epochMs.end());
    passMs.push_back(sum(r.epochMs));
    churnEpochs += static_cast<std::int64_t>(r.epochMs.size());
    arrivals += r.arrivals;
    allocs += r.allocs;
    rounds += r.rounds;
    busyRounds += r.net.busyRounds;
    messages += r.messages;
    claims += r.claims;
    steals += r.steals;
    transmissions += wireTransmissions(r.net, wire);
    retransmissions += r.net.retransmissions;
    drops += r.net.drops;
    stages += r.stages;
    activeSteps += r.activeSteps;
    resolveFractionSum += r.resolveFractionSum;
    spans += r.spans;
    for (const std::uint64_t d : r.digests) digest.add(d);
  }
  double wholeMsTotal() const { return sum(passMs); }
  double perOp(double total) const {
    return total / static_cast<double>(churnEpochs);
  }
};

void printDigest(const Workload& w, const perfbench::Digest& digest) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest.value()));
  std::cout << "digest " << w.name << " " << hex << "\n";
}

/// Folds replay `r` of pass p into the pass's fastest-of slot, checking
/// it against the first replay of the pass.
void fold(std::vector<Replay>& best, std::vector<bool>& seen, std::int32_t p,
          Replay&& r, Result& result) {
  const auto slot = static_cast<std::size_t>(p);
  result.operations(r.epochs, r.failedEpochs);
  if (!seen[slot]) {
    best[slot] = std::move(r);
    seen[slot] = true;
    return;
  }
  result.check(r.digests == best[slot].digests,
               "replays of one pass diverged");
  keepFastest(best[slot], r);
}

// ---- Online workloads ------------------------------------------------------

void runOnline(const Workload& w, std::uint64_t seed, double seconds,
               bool trace, Result& result) {
  const auto passes = static_cast<std::size_t>(w.passes);
  std::vector<Inputs> inputs(passes);
  // Per pass: untraced on the workload's wire; traced on it; untraced
  // on the sync bus (the last two in trace mode only).
  std::vector<Replay> plain(passes), traced(passes), sync(passes);
  std::vector<bool> seenPlain(passes), seenTraced(passes), seenSync(passes);
  std::vector<CoreReplay> cores;
  SetupSeries setup;

  Schedule schedule(seconds, w.passes);
  while (schedule.next()) {
    const std::int32_t p = schedule.pass();
    SetupTimes times;
    Inputs in = buildInputs(w, passSeed(seed, p), times);
    Replay r = replayOnline(w, in, w.wire, {});
    times.universeMs = r.setup.universeMs;
    times.transportMs = r.setup.transportMs;
    times.solverMs = r.setup.solverMs;
    setup.add(times);
    fold(plain, seenPlain, p, std::move(r), result);
    if (trace) {
      SpanSink sink;
      Tracer tracer(&sink);
      MetricsRegistry metrics;
      fold(traced, seenTraced, p,
           replayOnline(w, in, w.wire, {&tracer, &metrics, &sink}), result);
      fold(sync, seenSync, p,
           replayOnline(w, in, LiveTransportKind::SyncBus, {}), result);
      // The Transport contract: every epoch is bit-identical over any
      // wire, and with telemetry attached.
      const auto slot = static_cast<std::size_t>(p);
      result.check(traced[slot].digests == plain[slot].digests &&
                       sync[slot].digests == plain[slot].digests,
                   "traced or sync-bus replay diverged from the wire's");
      if (schedule.firstRound()) cores.push_back(replayCore(in));
    }
    if (schedule.firstRound()) {
      inputs[static_cast<std::size_t>(p)] = std::move(in);
    }
  }
  const double rssMb = peakRssMb();

  ReplayTotals plainTotals;
  for (const Replay& r : plain) plainTotals.add(r, w.wire);
  printDigest(w, plainTotals.digest);

  if (!trace) {
    std::vector<double> revenueRatio, certifiedRatio, admissionEpochs;
    const auto addQuality = [&](const Inputs& in, const Replay& r) {
      revenueRatio.push_back(
          ratio(r.finalProfit, scratchProfit(w, in, r), 1.0));
      certifiedRatio.push_back(ratio(r.finalProfit, r.finalDualUpperBound));
      admissionEpochs.insert(admissionEpochs.end(), r.admissionEpochs.begin(),
                             r.admissionEpochs.end());
    };
    for (std::size_t p = 0; p < passes; ++p) addQuality(inputs[p], plain[p]);
    for (std::int32_t p = w.passes; p < w.qualityPasses; ++p) {
      SetupTimes untimed;
      const Inputs in = buildInputs(w, passSeed(seed, p), untimed);
      const Replay r = replayOnline(w, in, LiveTransportKind::SyncBus, {});
      result.operations(r.epochs, r.failedEpochs);
      addQuality(in, r);
    }
    const double revenue = perfbench::mean(revenueRatio);
    const double certified = median(certifiedRatio);
    // Weak duality: no feasible schedule beats the dual upper bound.
    result.check(certified <= 1.0 + 1e-9, "profit above the dual upper bound");
    result.check(revenue > 0.5, "revenue far below the from-scratch solve");
    result.metric("setup_s", median(setup.totalS), "s");
    result.metric("epoch_ms_p50", quantile(plainTotals.epochMs, 0.5), "ms");
    result.metric("epoch_ms_p90", quantile(plainTotals.epochMs, 0.9), "ms");
    result.metric("arrivals_per_s",
                  static_cast<double>(plainTotals.arrivals) /
                      (plainTotals.wholeMsTotal() / 1000.0),
                  "1/s");
    result.metric("solve_s", median(plainTotals.passMs) / 1000.0, "s");
    result.metric("revenue_ratio", revenue, "ratio");
    result.metric("certified_ratio", certified, "ratio");
    result.metric("sla_p99_epochs", quantile(admissionEpochs, 0.99), "epochs");
    result.metric("wire_tx_per_msg",
                  ratio(static_cast<double>(plainTotals.transmissions),
                        static_cast<double>(plainTotals.messages)),
                  "count");
    result.metric("peak_rss_mb", rssMb, "MiB");
    std::cout << "replays " << setup.totalS.size() << " churn_epochs "
              << plainTotals.churnEpochs << "\n";
    return;
  }

  ReplayTotals tracedTotals;
  ReplayTotals syncTotals;
  for (std::size_t p = 0; p < passes; ++p) {
    tracedTotals.add(traced[p], w.wire);
    syncTotals.add(sync[p], LiveTransportKind::SyncBus);
  }
  const ReplayTotals& u = plainTotals;
  const ReplayTotals& t = tracedTotals;
  const SpanTotals& sp = t.spans;
  const double selfMs = sp.ms(kOnlineEpoch) - sp.ms(kMutate) - sp.ms(kAdmit) -
                        sp.ms(kRebalance) - sp.ms(kPhase1) - sp.ms(kPhase2);

  setup.report(result);
  reportCore(cores, result);
  result.metric("online.epoch_self_ms", t.perOp(selfMs), "ms");
  result.metric("online.mutate_ms", t.perOp(sp.ms(kMutate)), "ms");
  result.metric("online.admit_ms", t.perOp(sp.ms(kAdmit)), "ms");
  result.metric("online.resolve_fraction", u.perOp(u.resolveFractionSum),
                "ratio");
  result.metric("online.heap_allocs_per_epoch",
                u.perOp(static_cast<double>(u.allocs)), "count");
  result.metric("dist.phase1_ms", t.perOp(sp.ms(kPhase1)), "ms");
  result.metric("dist.phase2_ms", t.perOp(sp.ms(kPhase2)), "ms");
  result.metric("dist.rounds_per_epoch", u.perOp(static_cast<double>(u.rounds)),
                "count");
  result.metric("dist.busy_round_share",
                ratio(static_cast<double>(u.busyRounds),
                      static_cast<double>(u.rounds)),
                "ratio");
  result.metric("dist.active_step_share",
                ratio(static_cast<double>(t.activeSteps),
                      static_cast<double>(t.stages * kStepsPerStage)),
                "ratio");
  result.metric("dist.messages_per_epoch",
                u.perOp(static_cast<double>(u.messages)), "count");
  result.metric("engine.shard_ms", t.perOp(sp.ms(kShard)), "ms");
  result.metric("engine.steal_share",
                ratio(static_cast<double>(u.steals),
                      static_cast<double>(u.claims)),
                "ratio");
  result.metric("engine.heap_allocs_per_round",
                ratio(static_cast<double>(u.allocs),
                      static_cast<double>(u.rounds)),
                "count");
  result.metric("net.wire_ms",
                u.perOp(u.wholeMsTotal() - syncTotals.wholeMsTotal()), "ms");
  result.metric("net.transmissions",
                u.perOp(static_cast<double>(u.transmissions)), "count");
  result.metric("net.retx_share",
                ratio(static_cast<double>(u.retransmissions),
                      static_cast<double>(u.transmissions)),
                "ratio");
  result.metric("net.drops", u.perOp(static_cast<double>(u.drops)), "count");
  result.metric("obs.trace_overhead_share",
                t.wholeMsTotal() / u.wholeMsTotal() - 1.0, "ratio");
}

// ---- One-shot workload ---------------------------------------------------

/// One timed runDistributedOverTransport call and its checks.
struct Solve {
  double ms = 0;
  std::int64_t allocs = 0;
  DistributedResult result;
  bool ok = false;
  SpanTotals spans;
};

DistributedOptions oneshotOptions(const Workload& w, std::uint64_t seed) {
  DistributedOptions options;
  options.seed = seed + 7;
  options.epsilon = kEpsilon;
  options.misRoundBudget = kMisRoundBudget;
  options.stepsPerStage = kStepsPerStage;
  options.threads = w.threads;
  return options;
}

Solve solveOnce(const PreparedRun& prepared, SimNetwork& bus,
                DistributedOptions options, const SpanSink* sink = nullptr,
                Tracer* tracer = nullptr) {
  options.tracer = tracer;
  Solve s;
  const std::int64_t allocsBefore = heapAllocs();
  const auto begin = Clock::now();
  s.result = runDistributedOverTransport(prepared.universe, prepared.layering,
                                         bus, options);
  const auto end = Clock::now();
  s.allocs = heapAllocs() - allocsBefore;
  s.ms = msBetween(begin, end);
  s.ok = s.result.localViewsConsistent &&
         validateSolution(prepared.universe, s.result.solution).feasible;
  if (sink != nullptr) s.spans = sink->totals();
  return s;
}

/// Folds solve `s` of pass p into the pass's fastest slot, checking its
/// schedule against the pass's first solve.
void foldSolve(std::vector<Solve>& best, std::vector<bool>& seen,
               std::int32_t p, Solve&& s, Result& result) {
  const auto slot = static_cast<std::size_t>(p);
  result.operations(1, s.ok ? 0 : 1);
  if (!seen[slot]) {
    best[slot] = std::move(s);
    seen[slot] = true;
    return;
  }
  result.check(s.result.solution.instances ==
                       best[slot].result.solution.instances &&
                   s.result.profit == best[slot].result.profit,
               "one-shot solves of one pool diverged");
  if (s.ms < best[slot].ms) {
    best[slot].ms = s.ms;
    best[slot].spans = s.spans;
  }
}

void runOneshot(const Workload& w, std::uint64_t seed, double seconds,
                bool trace, Result& result) {
  const auto passes = static_cast<std::size_t>(w.passes);
  std::vector<Solve> plain(passes), traced(passes), sync(passes);
  std::vector<bool> seenPlain(passes), seenTraced(passes), seenSync(passes);
  std::vector<double> revenueRatio;
  std::vector<CoreReplay> cores;
  SetupSeries setup;

  Schedule schedule(seconds, w.passes);
  while (schedule.next()) {
    const std::int32_t p = schedule.pass();
    SetupTimes times;
    const Inputs in = buildInputs(w, passSeed(seed, p), times);
    const auto t0 = Clock::now();
    const PreparedRun prepared = prepareUnitTreeRun(*in.tree);
    const auto t1 = Clock::now();
    auto bus = std::make_unique<SimNetwork>(prepared.adjacency);
    const auto t2 = Clock::now();
    const DistributedOptions options = oneshotOptions(w, in.seed);
    const auto t3 = Clock::now();
    times.universeMs = msBetween(t0, t1);
    times.transportMs = msBetween(t1, t2);
    times.solverMs = msBetween(t2, t3);
    setup.add(times);

    foldSolve(plain, seenPlain, p, solveOnce(prepared, *bus, options), result);
    const Solve& first = plain[static_cast<std::size_t>(p)];
    if (!trace && schedule.firstRound()) {
      // Centralized reference: the protocol is bit-identical to the
      // fixed-schedule two-phase engine on the same seed.
      const TwoPhaseResult central = runTwoPhase(
          prepared.universe, prepared.layering,
          SchedulerConfig::fromDistributedOptions(options).framework());
      revenueRatio.push_back(ratio(first.result.profit, central.profit, 1.0));
      result.check(first.result.profit == central.profit,
                   "distributed profit differs from the centralized engine");
    }
    if (trace) {
      SpanSink sink;
      Tracer tracer(&sink);
      SimNetwork tracedBus(prepared.adjacency);
      foldSolve(traced, seenTraced, p,
                solveOnce(prepared, tracedBus, options, &sink, &tracer),
                result);
      SimNetwork syncBus(prepared.adjacency);
      foldSolve(sync, seenSync, p, solveOnce(prepared, syncBus, options),
                result);
      result.check(
          traced[static_cast<std::size_t>(p)].result.profit ==
                  first.result.profit &&
              sync[static_cast<std::size_t>(p)].result.profit ==
                  first.result.profit,
          "traced or repeated one-shot solve diverged");
      if (schedule.firstRound()) cores.push_back(replayCore(in));
    }
  }
  const double rssMb = peakRssMb();

  std::vector<double> solveMs, certified;
  perfbench::Digest digest;
  for (std::size_t p = 0; p < passes; ++p) {
    const Solve& s = plain[p];
    solveMs.push_back(s.ms);
    certified.push_back(ratio(s.result.profit, s.result.dualUpperBound));
    digest.add(solutionDigest(static_cast<std::int64_t>(p), s.result.solution,
                              s.result.profit));
  }
  printDigest(w, digest);
  const double solves = static_cast<double>(passes);

  if (!trace) {
    result.check(median(certified) <= 1.0 + 1e-9,
                 "profit above the dual upper bound");
    result.metric("setup_s", median(setup.totalS), "s");
    result.metric("epoch_ms_p50", quantile(solveMs, 0.5), "ms");
    result.metric("epoch_ms_p90", quantile(solveMs, 0.9), "ms");
    result.metric("arrivals_per_s",
                  solves * static_cast<double>(w.demands) /
                      (sum(solveMs) / 1000.0),
                  "1/s");
    result.metric("solve_s", median(solveMs) / 1000.0, "s");
    result.metric("revenue_ratio", perfbench::mean(revenueRatio), "ratio");
    result.metric("certified_ratio", median(certified), "ratio");
    // Every demand is decided by the one operation: an admitted demand
    // waits exactly one (inclusive) epoch.
    result.metric("sla_p99_epochs", 1.0, "epochs");
    result.metric("wire_tx_per_msg", 1.0, "count");
    result.metric("peak_rss_mb", rssMb, "MiB");
    std::cout << "replays " << setup.totalS.size() << "\n";
    return;
  }

  std::vector<double> tracedMs, syncMs, phase1Ms, phase2Ms, shardMs, addAllMs;
  std::int64_t allocs = 0, rounds = 0, busyRounds = 0, messages = 0,
               claims = 0, steals = 0, scheduledSteps = 0, activeSteps = 0;
  for (std::size_t p = 0; p < passes; ++p) {
    const DistributedResult& r = plain[p].result;
    allocs += plain[p].allocs;
    rounds += r.network.rounds;
    busyRounds += r.network.busyRounds;
    messages += r.network.messages;
    claims += r.engineClaims;
    steals += r.engineSteals;
    scheduledSteps += r.scheduledSteps;
    activeSteps += r.activeSteps;
    tracedMs.push_back(traced[p].ms);
    syncMs.push_back(sync[p].ms);
    phase1Ms.push_back(traced[p].spans.ms(kPhase1));
    phase2Ms.push_back(traced[p].spans.ms(kPhase2));
    shardMs.push_back(traced[p].spans.ms(kShard));
  }
  for (const CoreReplay& c : cores) addAllMs.push_back(c.extendMsTotal);

  setup.report(result);
  reportCore(cores, result);
  // The one-shot as one online epoch: the solve is the operation, the
  // protocol's phase 2 its admission, adding every demand its mutation.
  result.metric("online.epoch_self_ms",
                (sum(tracedMs) - sum(phase1Ms) - sum(phase2Ms)) / solves,
                "ms");
  result.metric("online.mutate_ms", perfbench::mean(addAllMs), "ms");
  result.metric("online.admit_ms", perfbench::mean(phase2Ms), "ms");
  result.metric("online.resolve_fraction", 1.0, "ratio");
  result.metric("online.heap_allocs_per_epoch",
                static_cast<double>(allocs) / solves, "count");
  result.metric("dist.phase1_ms", perfbench::mean(phase1Ms), "ms");
  result.metric("dist.phase2_ms", perfbench::mean(phase2Ms), "ms");
  result.metric("dist.rounds_per_epoch", static_cast<double>(rounds) / solves,
                "count");
  result.metric("dist.busy_round_share",
                ratio(static_cast<double>(busyRounds),
                      static_cast<double>(rounds)),
                "ratio");
  result.metric("dist.active_step_share",
                ratio(static_cast<double>(activeSteps),
                      static_cast<double>(scheduledSteps)),
                "ratio");
  result.metric("dist.messages_per_epoch",
                static_cast<double>(messages) / solves, "count");
  result.metric("engine.shard_ms", perfbench::mean(shardMs), "ms");
  result.metric("engine.steal_share",
                ratio(static_cast<double>(steals), static_cast<double>(claims)),
                "ratio");
  result.metric("engine.heap_allocs_per_round",
                ratio(static_cast<double>(allocs), static_cast<double>(rounds)),
                "count");
  result.metric("net.wire_ms", (sum(solveMs) - sum(syncMs)) / solves, "ms");
  result.metric("net.transmissions", static_cast<double>(messages) / solves,
                "count");
  result.metric("net.retx_share", 0.0, "ratio");
  result.metric("net.drops", 0.0, "count");
  result.metric("obs.trace_overhead_share", sum(tracedMs) / sum(solveMs) - 1.0,
                "ratio");
}

// ---- Command line ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string revision = "unknown";
};

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--revision") {
      args.revision = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!haveWorkload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

const Workload& findWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    const Workload& w = findWorkload(args.workload);
    std::cout << "meta {\"workload\": \"" << w.name << "\", \"seed\": "
              << args.seed << ", \"seconds\": " << args.seconds
              << ", \"trace\": " << (args.trace ? 1 : 0)
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"revision\": \"" << args.revision
              << "\", \"demands\": " << w.demands << ", \"threads\": "
              << w.threads << ", \"passes\": " << w.passes << "}\n";
    Result result;
    if (w.shape == Shape::OneshotCdnTree) {
      runOneshot(w, args.seed, args.seconds, args.trace, result);
    } else {
      runOnline(w, args.seed, args.seconds, args.trace, result);
    }
    std::cout << result.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
