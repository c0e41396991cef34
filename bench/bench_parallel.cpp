// Experiment E13 — the deterministic thread-parallel execution engine
// over the flat message plane (engine/parallel_runner.hpp,
// engine/message_plane.hpp).
//
// Runs the production-scale presets (metro_line_100k, cdn_tree_250k)
// across thread counts and reports the speedup curve, while verifying
// that every thread count reproduces the 1-thread solution bit for bit.
// Allocation discipline is measured two ways: a process-wide operator
// new counter around each run (heap allocations per round), and the
// message plane's own growth accounting (growth events and the last
// round that grew a buffer — every later round ran allocation-free).
// Emits BENCH_parallel.json next to the table; CI uploads it with the
// other bench reports.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "dist/protocol.hpp"
#include "dist/sim_network.hpp"
#include "gen/scenario.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

// ---- Process-wide allocation counter ----------------------------------
// Replacing the global operator new is safe in this standalone binary and
// gives the ground-truth "heap allocations during the round loop" number
// the flat message plane exists to eliminate.

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

namespace {

double wallMs(std::chrono::steady_clock::time_point begin,
              std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

struct PresetRun {
  std::string preset;
  std::int32_t demands = 0;
  std::int32_t instances = 0;
  std::int32_t threads = 0;
  /// More worker threads than physical cores: the speedup column is
  /// scheduler noise, not engine scaling, so the table suppresses it
  /// (the JSON keeps the raw number plus this flag).
  bool oversubscribed = false;
  double wallMs = 0;
  double speedup = 1.0;
  std::int64_t heapAllocs = 0;
  bool matchesSerial = true;
  DistributedResult result;
};

void report(Table& table, bench::JsonReport& json, const PresetRun& run) {
  const double allocsPerRound =
      run.result.network.rounds > 0
          ? static_cast<double>(run.heapAllocs) /
                static_cast<double>(run.result.network.rounds)
          : 0.0;
  // The headline number: the first-generation transports allocated at
  // least one heap block per delivered message per round; the flat plane
  // drives this ratio to ~0 (what remains is engine setup + phase-1
  // stack bookkeeping, amortized over the run).
  const double allocsPerMessage =
      run.result.network.messages > 0
          ? static_cast<double>(run.heapAllocs) /
                static_cast<double>(run.result.network.messages)
          : 0.0;
  Table::RowBuilder row = table.row();
  row.cell(run.preset).cell(run.demands).cell(run.threads).cell(run.wallMs, 1);
  if (run.oversubscribed) {
    row.cell("n/a");  // threads > cores: wall time is scheduler noise
  } else {
    row.cell(run.speedup, 2);
  }
  row.cell(run.result.network.rounds)
      .cell(run.result.network.messages)
      .cell(run.result.engineClaims)
      .cell(run.result.engineSteals)
      .cell(run.heapAllocs)
      .cell(allocsPerMessage, 3)
      .cell(run.result.network.planeGrowthEvents)
      .cell(run.result.network.planeLastGrowthRound)
      .cell(run.matchesSerial ? "yes" : "NO");
  json.row()
      .field("preset", run.preset)
      .field("demands", run.demands)
      .field("instances", run.instances)
      .field("threads", run.threads)
      // Speedup is bounded by the physical cores of the bench host; a
      // 1-core CI runner reports ~1.0 at every thread count by design.
      // `oversubscribed` marks rows where threads > cores — consumers
      // must not read their speedup as an engine-scaling signal.
      .field("hardware_threads",
             static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .field("oversubscribed", run.oversubscribed)
      .field("wall_ms", run.wallMs)
      .field("speedup_vs_1_thread", run.speedup)
      .field("rounds", run.result.network.rounds)
      .field("messages", run.result.network.messages)
      .field("engine_claims", run.result.engineClaims)
      .field("engine_steals", run.result.engineSteals)
      .field("payload", run.result.network.payload)
      .field("profit", run.result.profit)
      .field("heap_allocs", run.heapAllocs)
      .field("heap_allocs_per_round", allocsPerRound)
      .field("heap_allocs_per_message", allocsPerMessage)
      .field("plane_growth_events", run.result.network.planeGrowthEvents)
      .field("plane_last_growth_round",
             run.result.network.planeLastGrowthRound)
      .field("consistent", run.result.localViewsConsistent)
      .field("matches_1_thread", run.matchesSerial);
}

/// Returns whether every thread count matched the 1-thread run.
bool runPreset(const std::string& preset, PreparedRun prepared,
               std::int32_t demands, const DistributedOptions& baseOptions,
               const std::vector<std::int32_t>& threadCounts, Table& table,
               bench::JsonReport& json, bench::Telemetry& telemetry) {
  bool allMatch = true;
  DistributedResult serial;
  double serialWallMs = 0;
  for (std::size_t i = 0; i < threadCounts.size(); ++i) {
    const std::int32_t threads = threadCounts[i];
    // The transport is rebuilt per run (fresh stats, fresh plane); the
    // adjacency copy happens outside the measured window.
    auto adjacency = prepared.adjacency;
    SimNetwork bus(std::move(adjacency));
    DistributedOptions options = baseOptions;
    options.threads = threads;
    // Telemetry is strictly opt-in here: the default run must keep its
    // heap-allocation ground truth undisturbed, so the registry is only
    // attached (and its instrument-resolution allocations paid) when the
    // user asked for it.
    MetricsRegistry metrics;
    options.tracer = telemetry.tracer();
    if (telemetry.printMetrics()) options.metrics = &metrics;

    const std::int64_t allocsBefore =
        gHeapAllocs.load(std::memory_order_relaxed);
    const auto begin = std::chrono::steady_clock::now();
    DistributedResult result = runDistributedOverTransport(
        prepared.universe, prepared.layering, bus, options);
    const auto end = std::chrono::steady_clock::now();

    PresetRun run;
    run.preset = preset;
    run.demands = demands;
    run.instances = prepared.universe.numInstances();
    run.threads = threads;
    const auto cores =
        static_cast<std::int32_t>(std::thread::hardware_concurrency());
    run.oversubscribed = cores > 0 && threads > cores;
    run.wallMs = wallMs(begin, end);
    run.heapAllocs =
        gHeapAllocs.load(std::memory_order_relaxed) - allocsBefore;
    run.result = std::move(result);
    if (i == 0) {
      serial = run.result;
      serialWallMs = run.wallMs;
      run.speedup = 1.0;
      run.matchesSerial = true;
    } else {
      run.speedup = run.wallMs > 0 ? serialWallMs / run.wallMs : 1.0;
      run.matchesSerial =
          run.result.solution.instances == serial.solution.instances &&
          run.result.profit == serial.profit &&
          run.result.dualObjective == serial.dualObjective;
    }
    if (telemetry.printMetrics()) std::cout << metrics.describe();
    report(table, json, run);
    allMatch = allMatch && run.matchesSerial;
  }
  return allMatch;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seed", 1, "base RNG seed");
  flags.intFlag("line-demands", 100'000, "metro_line preset demand count");
  flags.intFlag("tree-demands", 250'000, "cdn_tree preset demand count");
  flags.intFlag("hotspot-demands", 50'000, "hotspot preset demand count");
  flags.intFlag("max-threads", 8, "largest thread count in the sweep");
  flags.stringFlag("json", "BENCH_parallel.json",
                   "machine-readable report path ('' disables)");
  bench::Telemetry::addFlags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  const auto lineDemands =
      static_cast<std::int32_t>(flags.getInt("line-demands"));
  const auto treeDemands =
      static_cast<std::int32_t>(flags.getInt("tree-demands"));
  const auto hotspotDemands =
      static_cast<std::int32_t>(flags.getInt("hotspot-demands"));
  const auto maxThreads =
      static_cast<std::int32_t>(flags.getInt("max-threads"));
  bench::Telemetry telemetry(flags);

  bench::banner(
      "E13",
      "the thread-parallel engine over the flat message plane is "
      "bit-identical to the serial engine at every thread count, and the "
      "round hot loop performs no per-message heap allocation",
      "'matches 1t' all 'yes'; speedup grows with threads on multi-core "
      "hardware (rows with threads > cores print 'n/a' — an oversubscribed "
      "run measures the OS scheduler, not the engine); plane growth stops "
      "after warmup (last growth round << rounds) and heap allocs per "
      "round stay O(1)");

  std::vector<std::int32_t> threadCounts;
  for (const std::int32_t t : {1, 2, 4, 8}) {
    if (t == 1 || t <= maxThreads) threadCounts.push_back(t);
  }

  Table table({"preset", "demands", "threads", "wall ms", "speedup", "rounds",
               "messages", "claims", "steals", "allocs", "allocs/msg",
               "plane growths", "last growth rnd", "matches 1t"});
  bench::JsonReport json(flags.getString("json"));

  DistributedOptions dopt;
  dopt.seed = seed + 7;
  dopt.epsilon = 0.3;
  dopt.misRoundBudget = 4;
  dopt.stepsPerStage = 2;

  bool allMatch = true;
  {
    const LineProblem problem = makeMetroLine100k(seed, lineDemands);
    allMatch &= runPreset("metro_line_100k", prepareUnitLineRun(problem),
                          lineDemands, dopt, threadCounts, table, json,
                          telemetry);
  }
  {
    const TreeProblem problem = makeCdnTree250k(seed, treeDemands);
    allMatch &= runPreset("cdn_tree_250k", prepareUnitTreeRun(problem),
                          treeDemands, dopt, threadCounts, table, json,
                          telemetry);
  }
  {
    // The hotspot row family: the skew-heavy pool behind the online
    // hotspot preset, solved one-shot. Uneven per-demand instance counts
    // make its shards uneven, so this is the row where claiming shards
    // from one cursor must keep threads busy past the hot shards (the
    // steals column shows threads leaving their even share).
    const ChurnTreeScenario scenario = makeHotspotTree50k(seed,
                                                          hotspotDemands);
    allMatch &= runPreset("hotspot_tree_50k",
                          prepareUnitTreeRun(scenario.pool), hotspotDemands,
                          dopt, threadCounts, table, json, telemetry);
  }

  table.print(std::cout);
  if (!flags.getString("json").empty()) {
    json.write();
  }
  telemetry.finish();
  return allMatch ? 0 : 1;
}
