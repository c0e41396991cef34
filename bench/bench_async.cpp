// Experiment E12 — the §5 protocol over the asynchronous lossy network
// (net/: alpha-synchronizer + ack/retransmission + sharding).
//
// Runs the lossy_wide_area presets (heavy-tail latency, 5% drops,
// locality sharding) and reports what the wire costs: virtual time,
// physical transmissions vs demand-level messages, retransmissions and
// drops — while verifying the result stays bit-identical to the
// round-synchronous bus. Emits BENCH_async.json next to the table so the
// async perf trajectory is tracked across PRs.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "dist/protocol.hpp"
#include "gen/scenario.hpp"
#include "net/runner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

namespace {

struct RowInput {
  std::string kind;  ///< "tree" or "line"
  std::int32_t n = 0;
  std::int32_t m = 0;
  std::int32_t shards = 0;
  DistributedResult async;
  DistributedResult sync;
  /// Metrics snapshot of the async run (the sync run is only the
  /// bit-identity comparator and stays uninstrumented).
  std::string metricsJson;
};

/// Returns whether the row holds: consistent and matching the sync run.
bool report(Table& table, bench::JsonReport& json, const RowInput& in) {
  const bool matches =
      in.async.solution.instances == in.sync.solution.instances &&
      in.async.profit == in.sync.profit;
  std::int64_t maxLoad = 0;
  for (const std::int64_t load : in.async.network.processorLoad) {
    maxLoad = std::max(maxLoad, load);
  }
  table.row()
      .cell(in.kind)
      .cell(in.n)
      .cell(in.m)
      .cell(in.shards)
      .cell(in.async.network.rounds)
      .cell(in.async.network.messages)
      .cell(in.async.network.transmissions)
      .cell(in.async.network.retransmissions)
      .cell(in.async.network.drops)
      .cell(in.async.network.virtualTime, 1)
      .cell(maxLoad)
      .cell(in.async.localViewsConsistent ? "yes" : "NO")
      .cell(matches ? "yes" : "NO");
  json.row()
      .field("kind", in.kind)
      .field("n", in.n)
      .field("m", in.m)
      .field("shard_processors", in.shards)
      .field("rounds", in.async.network.rounds)
      .field("busy_rounds", in.async.network.busyRounds)
      .field("messages", in.async.network.messages)
      .field("payload", in.async.network.payload)
      .field("transmissions", in.async.network.transmissions)
      .field("marker_transmissions", in.async.network.markerTransmissions)
      .field("retransmissions", in.async.network.retransmissions)
      .field("drops", in.async.network.drops)
      .field("virtual_time", in.async.network.virtualTime)
      .field("max_processor_load", maxLoad)
      .field("consistent", in.async.localViewsConsistent)
      .field("matches_sync", matches)
      .jsonField("metrics", in.metricsJson);
  return in.async.localViewsConsistent && matches;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seed", 17, "base RNG seed");
  flags.intFlag("seeds", 2, "seeds per configuration");
  flags.stringFlag("json", "BENCH_async.json",
                   "machine-readable report path ('' disables)");
  bench::Telemetry::addFlags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const auto seed0 = static_cast<std::uint64_t>(flags.getInt("seed"));
  const auto numSeeds = flags.getInt("seeds");
  bench::Telemetry telemetry(flags);

  bench::banner(
      "E12",
      "the unchanged §5 protocol over an async lossy wide-area wire "
      "(heavy-tail latency, 5% drops, ack/retransmission, locality "
      "sharding) is bit-identical to the round-synchronous run",
      "'consistent' and 'matches sync' all 'yes'; transmissions < messages "
      "under sharding (local chatter stays off the wire); retransmissions "
      "and drops > 0 at 5% loss");

  Table table({"kind", "n", "m", "shards", "rounds", "messages", "wire tx",
               "retx", "drops", "vtime", "max load", "consistent",
               "matches sync"});
  bench::JsonReport json(flags.getString("json"));

  DistributedOptions dopt;
  dopt.misRoundBudget = 8;
  dopt.stepsPerStage = 6;
  bool allHold = true;

  for (std::int64_t s = 0; s < numSeeds; ++s) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(s) * 31;
    dopt.seed = seed + 3;

    for (const std::int32_t shards : {0, 6}) {
      const LossyWideAreaTreeScenario tree =
          makeLossyWideAreaTree(seed, 48, 3, 36, shards);
      RowInput row;
      row.kind = "tree";
      row.n = tree.problem.numVertices;
      row.m = static_cast<std::int32_t>(tree.problem.demands.size());
      row.shards = shards;
      // Telemetry rides only the async run; the registry is per-row so
      // each JSON row embeds its own snapshot.
      MetricsRegistry metrics;
      dopt.tracer = telemetry.tracer();
      dopt.metrics = &metrics;
      row.async = runAsyncUnitTree(tree.problem, dopt, tree.net);
      dopt.tracer = nullptr;
      dopt.metrics = nullptr;
      row.sync = runDistributedUnitTree(tree.problem, dopt);
      if (telemetry.printMetrics()) std::cout << metrics.describe();
      row.metricsJson = metrics.toJson();
      allHold = report(table, json, row) && allHold;
    }

    for (const std::int32_t shards : {0, 5}) {
      const LossyWideAreaLineScenario line =
          makeLossyWideAreaLine(seed, 96, 3, 30, shards);
      RowInput row;
      row.kind = "line";
      row.n = line.problem.numSlots;
      row.m = static_cast<std::int32_t>(line.problem.demands.size());
      row.shards = shards;
      MetricsRegistry metrics;
      dopt.tracer = telemetry.tracer();
      dopt.metrics = &metrics;
      row.async = runAsyncUnitLine(line.problem, dopt, line.net);
      dopt.tracer = nullptr;
      dopt.metrics = nullptr;
      row.sync = runDistributedUnitLine(line.problem, dopt);
      if (telemetry.printMetrics()) std::cout << metrics.describe();
      row.metricsJson = metrics.toJson();
      allHold = report(table, json, row) && allHold;
    }
  }
  table.print(std::cout);
  if (!flags.getString("json").empty()) {
    json.write();
  }
  telemetry.finish();
  return allHold ? 0 : 1;
}
