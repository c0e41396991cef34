// Experiment E14 — the online churn engine: epoch-batched admission with
// warm-started incremental re-solves (src/online/).
//
// Replays the churn presets (flash_crowd_50k, diurnal_metro_100k,
// hotspot_tree_50k, plus a Poisson control on each pool) through the
// churn engine and reports, per arrival pattern: epochs/sec, the mean
// re-solve fraction (how much of the instance each epoch actually re-ran
// — the number that must sit below 1.0 on locality-heavy traces), the
// admission-latency SLA (mean/max epochs from arrival to first
// admission) and the revenue ratio of the final incremental solution
// against the from-scratch two-phase solve on the surviving demand set.
//
// The transport dimension runs the hotspot preset over every live
// transport (sync bus / async lossy wire / live-sharded wire) at a
// smaller pool — epoch outcomes are bit-identical by contract
// (tests/online_transport_test.cpp), so the rows isolate what the wire
// costs: epochs/sec, physical transmissions and virtual time.
//
// Emits BENCH_online.json next to the table; CI uploads it with the
// other bench reports and the schema guard keeps its keys stable.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "decomp/layering.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "obs/timeseries.hpp"
#include "online/churn_engine.hpp"
#include "policy/config.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

namespace {

struct PatternRun {
  std::string preset;
  std::string pattern;
  std::string transport = "sync";
  bool rebalance = false;  ///< epoch-boundary hot-shard rebalancing on
  std::int32_t demands = 0;
  std::int32_t epochs = 0;
  double wallMs = 0;
  /// Wall time per epoch, without the one-off dynamic-universe shell
  /// build (universe_build_ms).
  double meanEpochMs = 0;
  ChurnRunResult churn;
  /// Per-run MetricsRegistry snapshot (obs/), embedded verbatim in the
  /// JSON row so every row stays self-contained.
  std::string metricsJson;
  double scratchProfit = 0;
  /// Whether the *final* epoch was a full re-solve; only then is the
  /// bit-gate below meaningful (warm finals are covered by the revenue
  /// ratio, and full-resolve identity is gated by tests/online_test).
  bool finalEpochFullResolve = false;
  bool finalFullResolveMatchesScratch = false;
};

void report(Table& table, bench::JsonReport& json, const PatternRun& run) {
  const double epochsPerSec =
      run.wallMs > 0 ? 1000.0 * static_cast<double>(run.epochs) / run.wallMs
                     : 0.0;
  const double revenueRatio =
      run.scratchProfit > 0 ? run.churn.finalProfit / run.scratchProfit : 1.0;
  table.row()
      .cell(run.preset)
      .cell(run.pattern)
      .cell(run.transport)
      .cell(run.demands)
      .cell(run.epochs)
      .cell(run.wallMs, 1)
      .cell(epochsPerSec, 1)
      .cell(run.meanEpochMs, 2)
      .cell(run.churn.universeBuildMs, 1)
      .cell(run.churn.meanExtendUsPerArrival, 2)
      .cell(run.churn.meanResolveFraction, 3)
      .cell(run.churn.fullResolves)
      .cell(revenueRatio, 3)
      .cell(run.churn.sla.meanLatencyEpochs, 2)
      .cell(run.churn.sla.p99LatencyEpochs, 1)
      .cell(run.churn.sla.maxLatencyEpochs)
      .cell(run.churn.totalRounds)
      .cell(run.churn.network.transmissions)
      .cell(run.churn.totalDemandsMigrated)
      .cell(run.churn.peakVarianceBefore, 1)
      .cell(run.churn.peakVarianceAfter, 1);
  json.row()
      .field("preset", run.preset)
      .field("pattern", run.pattern)
      .field("transport", run.transport)
      .field("rebalance", run.rebalance)
      .field("demands", run.demands)
      .field("epochs", run.epochs)
      .field("wall_ms", run.wallMs)
      .field("epochs_per_sec", epochsPerSec)
      .field("mean_epoch_ms", run.meanEpochMs)
      .field("universe_build_ms", run.churn.universeBuildMs)
      .field("mean_extend_us_per_arrival", run.churn.meanExtendUsPerArrival)
      .field("mean_resolve_fraction", run.churn.meanResolveFraction)
      .field("full_resolves", run.churn.fullResolves)
      .field("final_profit", run.churn.finalProfit)
      .field("scratch_profit", run.scratchProfit)
      .field("revenue_ratio", revenueRatio)
      .field("rounds", run.churn.totalRounds)
      .field("silent_rounds", run.churn.network.silentRounds)
      .field("messages", run.churn.totalMessages)
      .field("transmissions", run.churn.network.transmissions)
      .field("retransmissions", run.churn.network.retransmissions)
      .field("virtual_time", run.churn.network.virtualTime)
      .field("mean_admission_latency_epochs",
             run.churn.sla.meanLatencyEpochs)
      .field("max_admission_latency_epochs", run.churn.sla.maxLatencyEpochs)
      .field("sla_p50_epochs", run.churn.sla.p50LatencyEpochs)
      .field("sla_p99_epochs", run.churn.sla.p99LatencyEpochs)
      .field("admitted_demands", run.churn.sla.admittedDemands)
      .field("departed_unadmitted", run.churn.sla.departedUnadmitted)
      .field("final_epoch_full_resolve", run.finalEpochFullResolve)
      .field("final_full_resolve_matches_scratch",
             run.finalFullResolveMatchesScratch)
      .field("demands_migrated", run.churn.totalDemandsMigrated)
      .field("load_variance_before", run.churn.peakVarianceBefore)
      .field("load_variance_after", run.churn.peakVarianceAfter)
      .field("engine_claims", run.churn.totalEngineClaims)
      .field("engine_steals", run.churn.totalEngineSteals)
      .jsonField("metrics", run.metricsJson);
}

/// From-scratch comparator on the final active set: the two-phase engine
/// restricted to the demands still alive after the last epoch.
double scratchProfitOnSurvivors(const InstanceUniverse& universe,
                                const Layering& layering,
                                const ChurnEngineConfig& config,
                                const ChurnRunResult& churn,
                                std::span<const InstanceId> activeInstances) {
  // The solver's knobs under the fixed schedule (the online path's
  // contract), seeded like the last epoch.
  SchedulerConfig sched = SchedulerConfig::fromOnlineSolver(config.solver);
  sched.core.seed = churn.epochs.empty() ? config.solver.seed
                                         : churn.epochs.back().protocolSeed;
  return runTwoPhaseRestricted(universe, layering, sched.framework(),
                               activeInstances)
      .profit;
}

DynamicUniverse makeDynamicUniverse(const TreeProblem& pool) {
  return makeDynamicTreeUniverse(pool);
}
DynamicUniverse makeDynamicUniverse(const LineProblem& pool) {
  return makeDynamicLineUniverse(pool);
}

/// The pool's first `numDemands` demands over the same networks: the
/// demand ids, and so any trace over them, mean the same in both pools.
TreeProblem prefixPool(const TreeProblem& pool, std::int32_t numDemands) {
  TreeProblem prefix;
  prefix.numVertices = pool.numVertices;
  prefix.networks = pool.networks;
  prefix.demands.assign(pool.demands.begin(),
                        pool.demands.begin() + numDemands);
  prefix.access.assign(pool.access.begin(), pool.access.begin() + numDemands);
  return prefix;
}

template <typename Pool>
PatternRun runPattern(const std::string& preset, const std::string& pattern,
                      const Pool& pool, const PreparedRun& prepared,
                      const ChurnTrace& trace, double epochLength,
                      std::uint64_t seed, std::int32_t threads,
                      bench::Telemetry& telemetry, std::string* seriesOut,
                      const LiveTransportConfig& transport = {},
                      const ShardRebalanceConfig& rebalance = {}) {
  ChurnEngineConfig config;
  config.epochLength = epochLength;
  config.solver.seed = seed + 13;
  config.solver.epsilon = 0.3;
  config.solver.misRoundBudget = 4;
  config.solver.stepsPerStage = 2;
  config.solver.threads = threads;
  config.solver.rebalance = rebalance;
  config.transport = transport;
  // One registry per pattern run; telemetry is read-only w.r.t. the
  // epoch outcomes, so the bit-gates below are unaffected.
  MetricsRegistry metrics;
  config.solver.tracer = telemetry.tracer();
  config.solver.metrics = &metrics;
  // Per-epoch registry snapshots (obs/timeseries.hpp): one labeled
  // EpochSeries per pattern run, all concatenated into one JSONL
  // artifact. Snapshots are read-only, so the bit-gates are unaffected.
  EpochSeries series(metrics,
                     preset + "/" + pattern + "/" +
                         std::string(liveTransportKindName(transport.kind)) +
                         (rebalance.enabled ? "/rebalance" : ""));
  if (seriesOut != nullptr) {
    config.solver.series = &series;
  }

  PatternRun run;
  run.preset = preset;
  run.pattern = pattern;
  run.transport = liveTransportKindName(transport.kind);
  run.rebalance = rebalance.enabled;
  run.demands = pool.numDemands();

  // The engine (with its live transport and dynamic universe) is
  // rebuilt per pattern; the caller generates the trace outside the
  // measured window, the dynamic-universe shell build runs inside it (its
  // own cost is reported separately as universe_build_ms, and
  // mean_epoch_ms leaves it out).
  const auto begin = std::chrono::steady_clock::now();
  DynamicUniverse universe = makeDynamicUniverse(pool);
  ChurnRunResult churn = runChurnOverTrace(universe, trace, config);
  const auto end = std::chrono::steady_clock::now();

  run.epochs = static_cast<std::int32_t>(churn.epochs.size());
  run.wallMs = std::chrono::duration<double, std::milli>(end - begin).count();
  run.meanEpochMs = run.epochs > 0 ? (run.wallMs - churn.universeBuildMs) /
                                         static_cast<double>(run.epochs)
                                   : 0.0;
  run.churn = std::move(churn);
  if (telemetry.printMetrics()) {
    std::cout << metrics.describe();
  }
  run.metricsJson = metrics.toJson();
  if (seriesOut != nullptr) {
    *seriesOut += series.jsonl();
  }
  run.scratchProfit = scratchProfitOnSurvivors(
      prepared.universe, prepared.layering, config, run.churn,
      run.churn.finalActiveInstances);
  if (!run.churn.epochs.empty() && run.churn.epochs.back().fullResolve) {
    run.finalEpochFullResolve = true;
    run.finalFullResolveMatchesScratch =
        run.churn.epochs.back().profit == run.scratchProfit;
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seed", 1, "base RNG seed");
  flags.intFlag("tree-demands", 50'000, "flash_crowd preset demand count");
  flags.intFlag("line-demands", 100'000, "diurnal preset demand count");
  flags.intFlag("hotspot-demands", 50'000, "hotspot preset demand count");
  flags.intFlag("transport-demands", 2'000,
                "pool size of the per-transport matrix (event-driven "
                "wires are simulated packet by packet)");
  flags.intFlag("threads", 1, "worker threads for the epoch re-solves");
  flags.stringFlag("json", "BENCH_online.json",
                   "machine-readable report path ('' disables)");
  flags.stringFlag("series", "BENCH_online_series.jsonl",
                   "per-epoch time-series JSONL path ('' disables)");
  bench::Telemetry::addFlags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  const auto treeDemands =
      static_cast<std::int32_t>(flags.getInt("tree-demands"));
  const auto lineDemands =
      static_cast<std::int32_t>(flags.getInt("line-demands"));
  const auto hotspotDemands =
      static_cast<std::int32_t>(flags.getInt("hotspot-demands"));
  const auto transportDemands =
      static_cast<std::int32_t>(flags.getInt("transport-demands"));
  const auto threads = static_cast<std::int32_t>(flags.getInt("threads"));
  bench::Telemetry telemetry(flags);

  bench::banner(
      "E14",
      "epoch-batched admission with warm-started incremental re-solves "
      "tracks the from-scratch two-phase engine at a fraction of the "
      "phase-1 work, over any transport (sync bus / async lossy wire / "
      "live-sharded wire)",
      "mean re-solve fraction < 1.0 on the locality-heavy churn presets; "
      "revenue ratio vs from-scratch within the approximation factor "
      "(empirically near 1); full-resolve epochs identical to scratch; "
      "per-transport epochs identical, only wire accounting moves");

  Table table({"preset", "pattern", "transport", "demands", "epochs",
               "wall ms", "epochs/s", "epoch ms", "build ms", "ext us/arr",
               "resolve frac", "full", "rev ratio",
               "sla mean", "sla p99", "sla max", "rounds", "wire tx",
               "migrated", "var before", "var after"});
  bench::JsonReport json(flags.getString("json"));
  const std::string seriesPath = flags.getString("series");
  std::string seriesText;
  std::string* const seriesOut = seriesPath.empty() ? nullptr : &seriesText;

  {
    const ChurnTreeScenario scenario = makeFlashCrowdTree50k(seed,
                                                             treeDemands);
    const PreparedRun prepared = prepareUnitTreeRun(scenario.pool);
    const ChurnTrace trace =
        generateChurnTrace(scenario.arrivals, scenario.pool.access);
    report(table, json,
           runPattern("flash_crowd_50k", "flash_crowd", scenario.pool,
                      prepared, trace, scenario.epochLength, seed, threads,
                      telemetry, seriesOut));
    ArrivalConfig poisson = scenario.arrivals;
    poisson.model = ArrivalModel::Poisson;
    const ChurnTrace poissonTrace =
        generateChurnTrace(poisson, scenario.pool.access);
    report(table, json,
           runPattern("flash_crowd_50k", "poisson", scenario.pool, prepared,
                      poissonTrace, scenario.epochLength, seed, threads,
                      telemetry, seriesOut));
  }
  {
    const ChurnLineScenario scenario =
        makeDiurnalMetroLine100k(seed, lineDemands);
    const PreparedRun prepared = prepareUnitLineRun(scenario.pool);
    const ChurnTrace trace =
        generateChurnTrace(scenario.arrivals, scenario.pool.access);
    report(table, json,
           runPattern("diurnal_metro_100k", "diurnal", scenario.pool,
                      prepared, trace, scenario.epochLength, seed, threads,
                      telemetry, seriesOut));
    ArrivalConfig poisson = scenario.arrivals;
    poisson.model = ArrivalModel::Poisson;
    const ChurnTrace poissonTrace =
        generateChurnTrace(poisson, scenario.pool.access);
    report(table, json,
           runPattern("diurnal_metro_100k", "poisson", scenario.pool,
                      prepared, poissonTrace, scenario.epochLength, seed,
                      threads, telemetry, seriesOut));
  }
  {
    // The adversarial preset: a targeted arrival wave plus a correlated
    // mass departure on the same hot networks.
    const ChurnTreeScenario scenario = makeHotspotTree50k(seed,
                                                          hotspotDemands);
    const PreparedRun prepared = prepareUnitTreeRun(scenario.pool);
    const ChurnTrace trace =
        generateChurnTrace(scenario.arrivals, scenario.pool.access);
    report(table, json,
           runPattern("hotspot_tree_50k", "targeted_burst", scenario.pool,
                      prepared, trace, scenario.epochLength, seed, threads,
                      telemetry, seriesOut));
  }
  {
    // Pool-size sweep — the dynamic universe's O(arrival) claim made
    // visible: one flash-crowd pool, and its quarter and half as
    // prefixes of its demands (same networks, same ids), all driven by
    // ONE trace over the quarter pool's demand ids. Only the pool grows,
    // so the per-arrival (mean_extend_us_per_arrival) and per-epoch
    // (mean_epoch_ms) columns must stay flat across these rows, while the
    // one-off shell build (universe_build_ms) tracks pool size.
    const ChurnTreeScenario scenario = makeFlashCrowdTree50k(seed,
                                                             treeDemands);
    const auto poolSize = [&](std::int32_t divisor) {
      return std::min(treeDemands, std::max(64, treeDemands / divisor));
    };
    const ChurnTrace trace = generateChurnTrace(
        scenario.arrivals, prefixPool(scenario.pool, poolSize(4)).access);
    const struct {
      const char* pattern;
      std::int32_t divisor;
    } sweep[] = {{"pool_sweep_quarter", 4},
                 {"pool_sweep_half", 2},
                 {"pool_sweep_full", 1}};
    for (const auto& point : sweep) {
      const TreeProblem pool =
          prefixPool(scenario.pool, poolSize(point.divisor));
      const PreparedRun prepared = prepareUnitTreeRun(pool);
      report(table, json,
             runPattern("flash_crowd_50k", point.pattern, pool, prepared,
                        trace, scenario.epochLength, seed, threads,
                        telemetry, seriesOut));
    }
  }
  {
    // Transport matrix: identical epochs (by the Transport contract),
    // per-wire cost.
    const ChurnTreeScenario scenario =
        makeHotspotTree50k(seed, transportDemands);
    const PreparedRun prepared = prepareUnitTreeRun(scenario.pool);
    const ChurnTrace trace =
        generateChurnTrace(scenario.arrivals, scenario.pool.access);
    AsyncConfig wire;
    wire.seed = seed ^ 0x3b9ULL;
    wire.link.latency.model = LatencyModel::HeavyTail;
    wire.link.latency.base = 1.0;
    wire.link.latency.tailShape = 1.5;
    wire.link.latency.tailCap = 64.0;
    wire.link.dropProbability = 0.05;
    wire.link.retransmitTimeout = 16.0;
    for (const LiveTransportKind kind :
         {LiveTransportKind::SyncBus, LiveTransportKind::Async,
          LiveTransportKind::Sharded}) {
      LiveTransportConfig transport;
      transport.kind = kind;
      transport.async = wire;
      transport.async.shardProcessors = std::max(2, transportDemands / 64);
      report(table, json,
             runPattern("hotspot_tree_50k", "targeted_burst", scenario.pool,
                        prepared, trace, scenario.epochLength, seed,
                        threads, telemetry, seriesOut, transport));
      if (kind == LiveTransportKind::Sharded) {
        // The hotspot row the rebalancer exists for: the targeted burst
        // piles a hot network onto one sticky anchor, and the
        // epoch-boundary rebalance must collapse the per-processor load
        // variance (load_variance_after vs load_variance_before) while
        // the epochs stay bit-identical to the row above.
        ShardRebalanceConfig rebalance;
        rebalance.enabled = true;
        rebalance.seed = seed ^ 0x5ebaULL;
        report(table, json,
               runPattern("hotspot_tree_50k", "targeted_burst",
                          scenario.pool, prepared, trace,
                          scenario.epochLength, seed, threads, telemetry,
                          seriesOut, transport, rebalance));
      }
    }
  }

  table.print(std::cout);
  if (!flags.getString("json").empty()) {
    json.write();
  }
  if (seriesOut != nullptr) {
    std::ofstream out(seriesPath);
    out << seriesText;
    std::cout << "wrote " << seriesPath << "\n";
  }
  telemetry.finish();
  return 0;
}
