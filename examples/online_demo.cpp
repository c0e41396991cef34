// The online scheduling subsystem end to end (src/online/).
//
// Streams a churn trace — demands arriving and departing in virtual
// time — through the epoch-batched churn engine: each epoch extends the
// live communication graph incrementally, warm-starts the primal-dual
// state from the surviving duals and re-runs the distributed protocol
// only on the affected region, then re-admits from the persistent
// phase-1 stack. The final epoch is contrasted with a from-scratch
// two-phase solve on the surviving demand set.
//
// --transport picks the wire (sync bus, async lossy, live-sharded):
// epoch outcomes are bit-identical across all of them, only the wire
// accounting printed at the end moves. --pattern targeted_burst runs
// the adversarial hotspot model (correlated arrival + departure waves
// on hash-picked target networks).
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "online/churn_engine.hpp"
#include "policy/online_policy.hpp"
#include "policy/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace treesched;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.intFlag("seed", 2027, "scenario RNG seed");
  flags.intFlag("demands", 480, "pool demand count");
  flags.stringFlag("pattern", "flash_crowd",
                   "arrival process: poisson, flash_crowd, diurnal or "
                   "targeted_burst");
  flags.stringFlag("transport", "sync",
                   "wire the epochs run over: sync, async or sharded");
  flags.intFlag("threads", 1, "worker threads for the epoch re-solves");
  flags.stringFlag("policy", "two_phase",
                   "scheduler admitting each epoch: two_phase runs the "
                   "warm-started incremental engine, any other "
                   "--list-policies id a from-scratch solve per epoch");
  flags.boolFlag("list-policies", false,
                 "enumerate every registered scheduler and exit");
  flags.stringFlag("trace", "",
                   "write a Chrome trace-event JSON of the run to FILE");
  flags.boolFlag("metrics", false,
                 "print the run's metrics-registry snapshot");
  flags.stringFlag("ledger", "",
                   "write the decision provenance ledger (JSONL, one "
                   "lifecycle event per line) to FILE");
  flags.stringFlag("series", "",
                   "write per-epoch metrics snapshots (JSONL) to FILE");
  if (!flags.parse(argc, argv)) return 0;
  if (flags.getBool("list-policies")) {
    const SchedulerRegistry& registry = SchedulerRegistry::all();
    Table policies({"policy", "certified", "distributed", "summary"});
    for (const std::string& id : registry.ids()) {
      const SchedulerInfo& info = registry.info(id);
      policies.row()
          .cell(info.id)
          .cell(info.certified ? "yes" : "no")
          .cell(info.distributed ? "yes" : "no")
          .cell(info.summary);
    }
    policies.print(std::cout);
    return 0;
  }
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  const auto demands = static_cast<std::int32_t>(flags.getInt("demands"));
  const std::string pattern = flags.getString("pattern");
  const std::string policy = flags.getString("policy");
  if (!SchedulerRegistry::all().has(policy)) {
    std::cout << "unknown --policy '" << policy
              << "' (use --list-policies)\n";
    return 1;
  }

  ChurnTreeScenario scenario = makeFlashCrowdTree50k(seed, demands);
  if (pattern == "poisson") {
    scenario.arrivals.model = ArrivalModel::Poisson;
  } else if (pattern == "diurnal") {
    scenario.arrivals.model = ArrivalModel::Diurnal;
  } else if (pattern == "targeted_burst") {
    scenario = makeHotspotTree50k(seed, demands);
  } else if (pattern != "flash_crowd") {
    std::cout << "unknown --pattern '" << pattern
              << "' (use poisson, flash_crowd, diurnal or targeted_burst)\n";
    return 1;
  }

  const ChurnTrace trace =
      generateChurnTrace(scenario.arrivals, scenario.pool.access);
  std::cout << "pool: " << scenario.pool.numDemands() << " demands over "
            << scenario.pool.numNetworks() << " networks; trace: "
            << trace.events.size() << " events ("
            << arrivalModelName(scenario.arrivals.model) << "), epoch length "
            << scenario.epochLength << "\n\n";

  // Telemetry plane (src/obs/): the tracer and registry thread through
  // the solver config into every epoch's protocol run.
  std::unique_ptr<ChromeTraceSink> sink;
  Tracer tracer;
  if (!flags.getString("trace").empty()) {
    sink = std::make_unique<ChromeTraceSink>(flags.getString("trace"));
    tracer = Tracer(sink.get());
  }
  MetricsRegistry metrics;
  // Decision provenance (obs/ledger.hpp) and per-epoch time series
  // (obs/timeseries.hpp): both read-only observers of the incremental
  // engine — attaching them changes zero bits of any epoch outcome.
  ProvenanceLedger ledger(&metrics);
  EpochSeries series(metrics, pattern + "/" + flags.getString("transport"));

  // The solver runs the online defaults (incremental.hpp) under the
  // demo's seed; registry ids get the same knobs (online_policy.hpp).
  ChurnEngineConfig config;
  config.epochLength = scenario.epochLength;
  config.solver.seed = seed + 13;
  config.solver.threads = static_cast<std::int32_t>(flags.getInt("threads"));
  config.solver.tracer = sink != nullptr ? &tracer : nullptr;
  config.solver.metrics = &metrics;
  if (!flags.getString("ledger").empty()) {
    config.solver.ledger = &ledger;
  }
  if (!flags.getString("series").empty()) {
    config.solver.series = &series;
  }
  config.transport.kind =
      parseLiveTransportKind(flags.getString("transport"));
  // The demo's wire: heavy-tail latency with 5% loss, locality-sharded
  // onto ~demands/16 processors when --transport sharded.
  config.transport.async.seed = seed ^ 0x11feULL;
  config.transport.async.link.latency.model = LatencyModel::HeavyTail;
  config.transport.async.link.latency.tailShape = 1.5;
  config.transport.async.link.latency.tailCap = 64.0;
  config.transport.async.link.dropProbability = 0.05;
  config.transport.async.link.retransmitTimeout = 16.0;
  config.transport.async.shardProcessors = std::max(2, demands / 16);

  // Package the workload as a ScenarioProblem: the static pool
  // universe/layering back the registry schedulers and the from-scratch
  // contrast below; the shared pool handle is what the "two_phase" path
  // grows its DynamicUniverse from.
  PreparedRun prepared = prepareUnitTreeRun(scenario.pool);
  ScenarioProblem problem{std::move(prepared.universe),
                          std::move(prepared.layering),
                          scenario.pool.access,
                          scenario.pool.numNetworks(),
                          /*hasChurn=*/true,
                          trace,
                          scenario.epochLength,
                          std::make_shared<const TreeProblem>(scenario.pool),
                          nullptr};
  // "two_phase" is the warm-started incremental engine over a dynamic
  // universe; any other id runs the registry scheduler from scratch
  // each churn epoch (policy/online_policy.hpp).
  const ChurnRunResult result =
      runChurnWithScheduler(problem, trace, config, policy);

  Table table({"epoch", "arr", "dep", "active", "affected", "frac", "mode",
               "profit", "dual UB", "rounds"});
  for (const EpochOutcome& epoch : result.epochs) {
    table.row()
        .cell(epoch.epoch)
        .cell(epoch.arrivals)
        .cell(epoch.departures)
        .cell(epoch.activeDemands)
        .cell(epoch.affectedDemands)
        .cell(epoch.resolveFraction, 2)
        .cell(epoch.fullResolve ? "full" : "warm")
        .cell(epoch.profit, 1)
        .cell(epoch.dualUpperBound, 1)
        .cell(epoch.rounds);
  }
  table.print(std::cout);

  // From-scratch contrast on the survivors: the solver's knobs under the
  // fixed schedule, seeded like the last epoch.
  const std::vector<InstanceId>& survivors = result.finalActiveInstances;
  SchedulerConfig scratch = SchedulerConfig::fromOnlineSolver(config.solver);
  scratch.core.seed = result.epochs.empty()
                          ? config.solver.seed
                          : result.epochs.back().protocolSeed;
  const TwoPhaseResult fromScratch = runTwoPhaseRestricted(
      problem.universe, problem.layering, scratch.framework(), survivors);

  std::cout << "\nfinal revenue (" << policy << "): " << result.finalProfit
            << "  (from-scratch on survivors: " << fromScratch.profit
            << ", ratio "
            << (fromScratch.profit > 0
                    ? result.finalProfit / fromScratch.profit
                    : 1.0)
            << ")\n"
            << "mean re-solve fraction over churn epochs: "
            << result.meanResolveFraction << " ("
            << result.fullResolves << " full re-solves in "
            << result.epochs.size() << " epochs)\n"
            << "admission SLA: " << result.sla.admittedDemands
            << " demands admitted, mean latency "
            << result.sla.meanLatencyEpochs << " epochs (p50 "
            << result.sla.p50LatencyEpochs << ", p99 "
            << result.sla.p99LatencyEpochs << ", max "
            << result.sla.maxLatencyEpochs << "), "
            << result.sla.departedUnadmitted << " departed unadmitted\n"
            << "wire (" << flags.getString("transport")
            << "): " << result.network.transmissions << " transmissions, "
            << result.network.retransmissions << " retransmissions, "
            << result.network.drops << " drops, virtual time "
            << result.network.virtualTime << "\n";
  if (flags.getBool("metrics")) std::cout << "\n" << metrics.describe();
  if (!flags.getString("ledger").empty()) {
    ledger.writeJsonl(flags.getString("ledger"));
    std::cout << "wrote " << flags.getString("ledger") << " ("
              << ledger.eventCount() << " ledger events; alerts: "
              << ledger.slaBreaches() << " sla, "
              << ledger.neverAdmittedDepartures() << " never-admitted, "
              << ledger.migrationThrashAlerts() << " thrash)\n";
  }
  if (!flags.getString("series").empty()) {
    series.write(flags.getString("series"));
    std::cout << "wrote " << flags.getString("series") << " ("
              << series.snapshots() << " epoch snapshots)\n";
  }
  if (sink != nullptr) {
    sink->close();
    std::cout << "wrote " << sink->path() << " (" << sink->eventCount()
              << " trace events)\n";
  }
  return 0;
}
