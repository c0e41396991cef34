// The decision provenance ledger (src/obs/ledger.hpp) must be a pure
// observer: attaching one changes zero bits of any schedule, the
// NullLedger path adds zero hot-loop heap allocations, every recorded
// rejection carries a dual certificate that replays bit-for-bit from
// the ledger's own dual_raise events, the protocol's observer and the
// ledger read the same decision records, and the lifecycle invariants
// (exactly one admission per admitted demand, departures matching the
// solver's SLA books, placements and migrations in causal order) hold on
// every run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/protocol.hpp"
#include "dist/sim_network.hpp"
#include "framework/lhs_tracker.hpp"
#include "gen/scenario.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "online/churn_engine.hpp"

// ---- Process-wide allocation counter (telemetry_test discipline) ------
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

// ---- Certificate replay ------------------------------------------------

/// Replays the ledger's raw (causal) event order into a fresh LHS
/// vector using the one shared update rule (framework/lhs_tracker.hpp)
/// and checks every certified rejection against it: the blocker's
/// replayed LHS matches the recorded certLhs, and the certLhs clears
/// the lambda * profit threshold — the paper's dual explanation of why
/// the pop was rejected. `epochs` (empty for one-shot runs) supplies
/// the full-resolve flags: a full re-solve drops the warm dual state,
/// so the replay resets exactly where the solver does (after the
/// epoch's mutation events, before its raises).
struct ReplayStats {
  std::int64_t certified = 0;
  std::int64_t crashRejections = 0;
};

ReplayStats checkCertificates(const InstanceUniverse& u, const Layering& lay,
                              RaiseRule rule,
                              const std::vector<LedgerEvent>& events,
                              const std::vector<EpochOutcome>& epochs) {
  ReplayStats stats;
  std::vector<double> lhs(static_cast<std::size_t>(u.numInstances()), 0.0);
  struct LiveRaise {
    InstanceId instance;
    double alpha;
    double beta;
  };
  std::vector<std::vector<LiveRaise>> live(
      static_cast<std::size_t>(u.numDemands()));

  const auto apply = [&](InstanceId i, double alpha, double beta,
                         double sign) {
    const RaiseAmounts amounts{sign * alpha, sign * beta};
    applyRaiseToLhs(u, rule, i, lay.critical(i), amounts, lhs);
  };
  const auto reset = [&] {
    std::fill(lhs.begin(), lhs.end(), 0.0);
    for (auto& list : live) {
      list.clear();
    }
  };

  std::int64_t curEpoch = -1;
  bool pendingReset = false;
  for (const LedgerEvent& ev : events) {
    if (ev.epoch != curEpoch) {
      curEpoch = ev.epoch;
      if (curEpoch >= 0 &&
          curEpoch < static_cast<std::int64_t>(epochs.size()) &&
          epochs[static_cast<std::size_t>(curEpoch)].fullResolve) {
        // The solver drops the warm duals after this epoch's mutations;
        // the reset lands at the first post-mutation event below.
        pendingReset = true;
      }
    }
    switch (ev.kind) {
      case LedgerEventKind::Departure:
        // Purge exactly, in the solver's order: the demand's surviving
        // raises are subtracted raise by raise.
        for (const LiveRaise& r : live[static_cast<std::size_t>(ev.demand)]) {
          apply(r.instance, r.alpha, r.beta, -1.0);
        }
        live[static_cast<std::size_t>(ev.demand)].clear();
        break;
      case LedgerEventKind::DualRaise:
        if (pendingReset) {
          reset();
          pendingReset = false;
        }
        apply(ev.instance, ev.alphaIncrement, ev.betaIncrement, 1.0);
        live[static_cast<std::size_t>(ev.demand)].push_back(
            {ev.instance, ev.alphaIncrement, ev.betaIncrement});
        break;
      case LedgerEventKind::Admitted:
        if (pendingReset) {
          reset();
          pendingReset = false;
        }
        break;
      case LedgerEventKind::Rejected: {
        if (pendingReset) {
          reset();
          pendingReset = false;
        }
        if (ev.reason == RejectReason::OwnerCrashed) {
          EXPECT_EQ(ev.certInstance, kNoInstance)
              << "a crashed owner has no blocking certificate";
          ++stats.crashRejections;
          break;
        }
        EXPECT_NE(ev.certInstance, kNoInstance)
            << "every live rejection names its blocker (demand "
            << ev.demand << ", instance " << ev.instance << ")";
        if (ev.certInstance == kNoInstance) break;
        ++stats.certified;
        EXPECT_NEAR(lhs[static_cast<std::size_t>(ev.certInstance)],
                    ev.certLhs, 1e-9)
            << "certificate LHS replays from the ledger's own raises";
        EXPECT_GE(ev.certLhs, ev.certThreshold - 1e-9)
            << "the blocker is lambda-satisfied: lhs >= lambda * profit";
        break;
      }
      default:
        break;
    }
  }
  return stats;
}

// ---- Fingerprints ------------------------------------------------------

struct OneShotFingerprint {
  std::vector<InstanceId> instances;
  double profit;
  double dualObjective;
  double lambdaMeasured;
  std::int64_t rounds;
  std::int64_t messages;
  std::int64_t raises;

  bool operator==(const OneShotFingerprint&) const = default;
};

OneShotFingerprint fingerprintOf(const DistributedResult& r) {
  return {r.solution.instances, r.profit,           r.dualObjective,
          r.lambdaMeasured,     r.network.rounds,   r.network.messages,
          r.raises};
}

struct EpochFingerprint {
  std::vector<InstanceId> instances;
  double profit;
  double dualObjective;
  double lambdaMeasured;
  std::int64_t raises;
  std::int64_t rounds;

  bool operator==(const EpochFingerprint&) const = default;
};

std::vector<EpochFingerprint> fingerprintOf(const ChurnRunResult& r) {
  std::vector<EpochFingerprint> prints;
  prints.reserve(r.epochs.size());
  for (const EpochOutcome& epoch : r.epochs) {
    prints.push_back({epoch.solution.instances, epoch.profit,
                      epoch.dualObjective, epoch.lambdaMeasured, epoch.raises,
                      epoch.rounds});
  }
  return prints;
}

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

// ---- One-shot protocol -------------------------------------------------

TEST(Provenance, OneShotLedgerBitIdentityAndCertificates) {
  const TreeProblem tree = testTree(71);
  const LineProblem line = testLine(172);
  for (const std::int32_t threads : {1, 8}) {
    DistributedOptions plain;
    plain.seed = 72;
    plain.threads = threads;

    for (const bool isTree : {true, false}) {
      PreparedRun plainRun =
          isTree ? prepareUnitTreeRun(tree) : prepareUnitLineRun(line);
      SimNetwork plainBus(std::move(plainRun.adjacency));
      const OneShotFingerprint before = fingerprintOf(
          runDistributedOverTransport(plainRun.universe, plainRun.layering,
                                      plainBus, plain));

      PreparedRun tracedRun =
          isTree ? prepareUnitTreeRun(tree) : prepareUnitLineRun(line);
      SimNetwork tracedBus(std::move(tracedRun.adjacency));
      ProvenanceLedger ledger;
      DistributedOptions traced = plain;
      traced.ledger = &ledger;
      const DistributedResult result = runDistributedOverTransport(
          tracedRun.universe, tracedRun.layering, tracedBus, traced);

      EXPECT_EQ(fingerprintOf(result), before)
          << (isTree ? "tree" : "line") << " threads " << threads;
      EXPECT_GT(ledger.eventCount(), 0);

      // Every raise shows up; phase 2 gives every raised instance
      // exactly one verdict event; admissions match the solution.
      std::int64_t raiseEvents = 0;
      std::vector<InstanceId> admitted;
      std::map<DemandId, std::int64_t> admittedPerDemand;
      for (const LedgerEvent& ev : ledger.events()) {
        if (ev.kind == LedgerEventKind::DualRaise) ++raiseEvents;
        if (ev.kind == LedgerEventKind::Admitted) {
          admitted.push_back(ev.instance);
          ++admittedPerDemand[ev.demand];
        }
      }
      EXPECT_EQ(raiseEvents, result.raises);
      std::sort(admitted.begin(), admitted.end());
      EXPECT_EQ(admitted, result.solution.instances);
      for (const auto& [demand, count] : admittedPerDemand) {
        EXPECT_EQ(count, 1) << "one admission per demand " << demand;
      }

      const ReplayStats stats = checkCertificates(
          tracedRun.universe, tracedRun.layering, traced.rule,
          ledger.events(), {});
      EXPECT_GT(stats.certified, 0)
          << "the scenario produced certified rejections";
    }
  }
}

TEST(Provenance, OneShotCrashEventsCarryNoCertificate) {
  const TreeProblem tree = testTree(74);
  PreparedRun run = prepareUnitTreeRun(tree);
  SimNetwork bus(std::move(run.adjacency));
  ProvenanceLedger ledger;
  DistributedOptions opt;
  opt.seed = 75;
  opt.ledger = &ledger;
  opt.crashProcessors = {0, 5, 9};
  opt.crashAtTuple = 3;
  runDistributedOverTransport(run.universe, run.layering, bus, opt);

  std::vector<DemandId> crashed;
  for (const LedgerEvent& ev : ledger.events()) {
    if (ev.kind == LedgerEventKind::Crash) crashed.push_back(ev.demand);
  }
  EXPECT_EQ(crashed, opt.crashProcessors)
      << "one crash event per crashed processor, ascending";
  checkCertificates(run.universe, run.layering, opt.rule, ledger.events(),
                    {});
}

/// Keeps every decision record the protocol hands its observer.
class RecordingObserver final : public ProtocolObserver {
 public:
  void onEvent(const LedgerEvent& event) override { events.push_back(event); }

  std::vector<LedgerEvent> events;
};

/// Every field of a record but the ledger's (epoch, seq) stamp.
auto decisionFields(const LedgerEvent& e) {
  return std::tuple(e.demand, e.kind, e.instance, e.tuple, e.alphaIncrement,
                    e.betaIncrement, e.reason, e.certInstance, e.certLhs,
                    e.certThreshold, e.fromProcessor, e.toProcessor,
                    e.latencyEpochs, e.admitted);
}

TEST(Provenance, ObserverAndLedgerReadOneEmission) {
  const TreeProblem tree = testTree(74);
  for (const std::int32_t threads : {1, 8}) {
    PreparedRun run = prepareUnitTreeRun(tree);
    SimNetwork bus(std::move(run.adjacency));
    ProvenanceLedger ledger;
    RecordingObserver observer;
    DistributedOptions opt;
    opt.seed = 75;
    opt.threads = threads;
    opt.ledger = &ledger;
    opt.observer = &observer;
    opt.crashProcessors = {0, 5, 9};
    opt.crashAtTuple = 3;
    runDistributedOverTransport(run.universe, run.layering, bus, opt);

    // The run exercises every decision kind, certified rejections too.
    std::map<LedgerEventKind, std::int64_t> kinds;
    std::int64_t certified = 0;
    for (const LedgerEvent& ev : ledger.events()) {
      ++kinds[ev.kind];
      if (ev.certInstance != kNoInstance) ++certified;
    }
    EXPECT_GT(kinds[LedgerEventKind::Crash], 0);
    EXPECT_GT(kinds[LedgerEventKind::DualRaise], 0);
    EXPECT_GT(kinds[LedgerEventKind::Admitted], 0);
    EXPECT_GT(kinds[LedgerEventKind::Rejected], 0);
    EXPECT_GT(certified, 0);

    ASSERT_EQ(observer.events.size(), ledger.events().size())
        << "threads " << threads;
    for (std::size_t k = 0; k < observer.events.size(); ++k) {
      EXPECT_EQ(decisionFields(observer.events[k]),
                decisionFields(ledger.events()[k]))
          << "record " << k << ", threads " << threads;
    }
  }
}

// ---- Online churn ------------------------------------------------------

ChurnEngineConfig churnConfig(std::uint64_t seed, std::int32_t threads) {
  ChurnEngineConfig config;
  config.epochLength = 8.0;
  config.solver.seed = seed;
  config.solver.epsilon = 0.35;
  config.solver.misRoundBudget = 4;
  config.solver.stepsPerStage = 2;
  config.solver.threads = threads;
  return config;
}

TEST(Provenance, ChurnLedgerBitIdentityAcrossPatterns) {
  struct Case {
    const char* name;
    bool tree;
    ArrivalModel model;
  };
  const std::vector<Case> cases = {
      {"tree/poisson", true, ArrivalModel::Poisson},
      {"tree/targeted_burst", true, ArrivalModel::TargetedBurst},
      {"line/poisson", false, ArrivalModel::Poisson},
      {"line/targeted_burst", false, ArrivalModel::TargetedBurst},
  };
  for (const Case& c : cases) {
    // Hotspot presets carry the targeted_burst arrival config natively;
    // the model override covers the rest of the matrix.
    ChurnTreeScenario treeScenario = makeHotspotTree50k(81, 72);
    ChurnLineScenario lineScenario = makeDiurnalMetroLine100k(82, 80);
    ArrivalConfig arrivals = c.tree ? treeScenario.arrivals
                                    : lineScenario.arrivals;
    arrivals.model = c.model;
    arrivals.horizon = 48.0;
    const auto& access =
        c.tree ? treeScenario.pool.access : lineScenario.pool.access;
    const auto makeUniverse = [&] {
      return c.tree ? makeDynamicTreeUniverse(treeScenario.pool)
                    : makeDynamicLineUniverse(lineScenario.pool);
    };
    const ChurnTrace trace = generateChurnTrace(arrivals, access);

    for (const std::int32_t threads : {1, 8}) {
      const ChurnEngineConfig plain = churnConfig(83, threads);
      DynamicUniverse plainUniverse = makeUniverse();
      const std::vector<EpochFingerprint> before =
          fingerprintOf(runChurnOverTrace(plainUniverse, trace, plain));

      MetricsRegistry metrics;
      ProvenanceLedger ledger(&metrics);
      EpochSeries series(metrics, c.name);
      ChurnEngineConfig traced = plain;
      traced.solver.metrics = &metrics;
      traced.solver.ledger = &ledger;
      traced.solver.series = &series;
      DynamicUniverse tracedUniverse = makeUniverse();
      const ChurnRunResult result =
          runChurnOverTrace(tracedUniverse, trace, traced);

      EXPECT_EQ(fingerprintOf(result), before)
          << c.name << " threads " << threads;
      EXPECT_GT(ledger.eventCount(), 0) << c.name;
      EXPECT_EQ(series.snapshots(),
                static_cast<std::int64_t>(result.epochs.size()))
          << "one time-series row per epoch";
    }
  }
}

TEST(Provenance, ChurnLifecycleAndCertificateReplay) {
  const ChurnTreeScenario scenario = makeHotspotTree50k(91, 72);
  const PreparedRun prepared = prepareUnitTreeRun(scenario.pool);
  ArrivalConfig arrivals = scenario.arrivals;
  arrivals.horizon = 64.0;
  const ChurnTrace trace =
      generateChurnTrace(arrivals, scenario.pool.access);

  MetricsRegistry metrics;
  ProvenanceLedger ledger(&metrics);
  ChurnEngineConfig config = churnConfig(92, 1);
  config.solver.metrics = &metrics;
  config.solver.ledger = &ledger;
  DynamicUniverse universe = makeDynamicTreeUniverse(scenario.pool);
  const ChurnRunResult result = runChurnOverTrace(universe, trace, config);

  // Lifecycle invariants against the solver's own SLA books: one
  // admitted event per admission the solver counted, and the monitor's
  // never-admitted departures match departedUnadmitted exactly.
  std::int64_t admittedEvents = 0;
  std::int64_t slowAdmissions = 0;
  std::map<DemandId, std::int64_t> admittedPerDemand;
  std::map<DemandId, std::int64_t> arrivalsPerDemand;
  for (const LedgerEvent& ev : ledger.events()) {
    if (ev.kind == LedgerEventKind::Arrival) {
      ++arrivalsPerDemand[ev.demand];
    }
    if (ev.kind == LedgerEventKind::Admitted) {
      ++admittedEvents;
      ++admittedPerDemand[ev.demand];
      EXPECT_GE(ev.latencyEpochs, 0);
      if (ev.latencyEpochs > ProvenanceLedger::kSlaEpochs) {
        ++slowAdmissions;
      }
    }
  }
  EXPECT_EQ(admittedEvents, result.sla.admittedDemands);
  EXPECT_EQ(ledger.neverAdmittedDepartures(), result.sla.departedUnadmitted);
  EXPECT_EQ(ledger.slaBreaches(), slowAdmissions);
  EXPECT_EQ(metrics.counter("obs.alert.never_admitted_departure").value(),
            ledger.neverAdmittedDepartures())
      << "monitor tallies publish as obs.alert.* counters";
  for (const auto& [demand, count] : admittedPerDemand) {
    EXPECT_LE(count, arrivalsPerDemand[demand])
        << "at most one admission per arrival of demand " << demand;
  }

  const ReplayStats stats = checkCertificates(
      prepared.universe, prepared.layering, config.solver.rule,
      ledger.events(), result.epochs);
  EXPECT_GT(stats.certified, 0)
      << "the churn run produced certified rejections";
}

TEST(Provenance, ShardedPlacementAndMigrationEvents) {
  const ChurnTreeScenario scenario = makeHotspotTree50k(41, 72);
  ArrivalConfig arrivals = scenario.arrivals;
  arrivals.horizon = 48.0;
  const ChurnTrace trace =
      generateChurnTrace(arrivals, scenario.pool.access);

  ChurnEngineConfig config = churnConfig(42, 1);
  config.solver.rebalance.enabled = true;
  config.solver.rebalance.seed = 43;
  config.transport.kind = LiveTransportKind::Sharded;
  config.transport.async.shardProcessors = 5;

  DynamicUniverse plainUniverse = makeDynamicTreeUniverse(scenario.pool);
  const std::vector<EpochFingerprint> before =
      fingerprintOf(runChurnOverTrace(plainUniverse, trace, config));

  ProvenanceLedger ledger;
  ChurnEngineConfig traced = config;
  traced.solver.ledger = &ledger;
  DynamicUniverse tracedUniverse = makeDynamicTreeUniverse(scenario.pool);
  const ChurnRunResult result = runChurnOverTrace(tracedUniverse, trace, traced);
  EXPECT_EQ(fingerprintOf(result), before)
      << "the sharded wire's ledger attachment is schedule-neutral";

  // Raw emission order: the solver places an arrival as it connects it,
  // and rebalances at the epoch boundary, before any other event.
  std::int64_t placements = 0;
  std::int64_t migrations = 0;
  std::map<DemandId, std::int64_t> migrationsPerDemand;
  std::int64_t expectedThrash = 0;
  std::int64_t lastNonMigrationEpoch = -1;
  const std::vector<LedgerEvent>& events = ledger.events();
  for (std::size_t k = 0; k < events.size(); ++k) {
    const LedgerEvent& ev = events[k];
    if (ev.kind != LedgerEventKind::Migration) {
      lastNonMigrationEpoch = ev.epoch;
    }
    if (ev.kind == LedgerEventKind::Placement) {
      ++placements;
      EXPECT_GE(ev.toProcessor, 0);
      ASSERT_GT(k, 0u);
      EXPECT_EQ(events[k - 1].kind, LedgerEventKind::Arrival)
          << "a placement directly follows its arrival (record " << k << ")";
      EXPECT_EQ(events[k - 1].demand, ev.demand) << "record " << k;
    }
    if (ev.kind == LedgerEventKind::Migration) {
      EXPECT_NE(lastNonMigrationEpoch, ev.epoch)
          << "epoch " << ev.epoch << "'s migrations precede its other events";
      ++migrations;
      EXPECT_GE(ev.fromProcessor, 0);
      EXPECT_GE(ev.toProcessor, 0);
      EXPECT_NE(ev.fromProcessor, ev.toProcessor);
      if (++migrationsPerDemand[ev.demand] >=
          ProvenanceLedger::kMigrationThrash) {
        ++expectedThrash;
      }
    }
  }
  EXPECT_GT(placements, 0) << "live sharding placed arriving demands";
  EXPECT_GT(migrations, 0)
      << "the hotspot burst tripped the rebalancer at least once";
  EXPECT_EQ(migrations, result.totalDemandsMigrated)
      << "one migration event per rebalancer move";
  EXPECT_EQ(ledger.migrationThrashAlerts(), expectedThrash);
}

// ---- Canonical ordering + serialization --------------------------------

TEST(Provenance, CanonicalOrderAndJsonl) {
  const ChurnTreeScenario scenario = makeHotspotTree50k(51, 60);
  ArrivalConfig arrivals = scenario.arrivals;
  arrivals.horizon = 32.0;
  const ChurnTrace trace =
      generateChurnTrace(arrivals, scenario.pool.access);

  ProvenanceLedger ledger;
  ChurnEngineConfig config = churnConfig(52, 1);
  config.solver.ledger = &ledger;
  DynamicUniverse universe = makeDynamicTreeUniverse(scenario.pool);
  runChurnOverTrace(universe, trace, config);

  // Canonical order: (epoch, demand, lifecycle kind, seq),
  // non-decreasing — every demand's story reads contiguously per epoch.
  const std::vector<LedgerEvent> canonical = ledger.canonicalEvents();
  ASSERT_EQ(static_cast<std::int64_t>(canonical.size()),
            ledger.eventCount());
  const auto key = [](const LedgerEvent& ev) {
    return std::tuple(ev.epoch, ev.demand,
                      static_cast<std::uint8_t>(ev.kind), ev.seq);
  };
  for (std::size_t i = 1; i < canonical.size(); ++i) {
    EXPECT_LE(key(canonical[i - 1]), key(canonical[i])) << "at index " << i;
  }

  // JSONL: one object per event, each naming its event kind.
  const std::string jsonl = ledger.toJsonl();
  std::int64_t lines = 0;
  std::size_t pos = 0;
  while ((pos = jsonl.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, ledger.eventCount());
  EXPECT_EQ(jsonl.rfind("{\"epoch\":", 0), 0u)
      << "rows are flat JSON objects led by the epoch";

  const std::string path = "provenance_roundtrip.jsonl";
  ledger.writeJsonl(path);
  std::remove(path.c_str());
}

// ---- Disabled-path allocation gate -------------------------------------

TEST(Provenance, NullLedgerPathAddsZeroAllocations) {
  const ChurnTreeScenario scenario = makeHotspotTree50k(61, 60);
  ArrivalConfig arrivals = scenario.arrivals;
  arrivals.horizon = 32.0;
  const ChurnTrace trace =
      generateChurnTrace(arrivals, scenario.pool.access);

  const ChurnEngineConfig plain = churnConfig(62, 1);
  NullLedger nullLedger;
  ChurnEngineConfig gated = plain;
  gated.solver.ledger = &nullLedger;

  const auto measure = [&](const ChurnEngineConfig& config) {
    // The universe build is outside the measured window; the build
    // itself is deterministic, so both paths would count it equally.
    DynamicUniverse universe = makeDynamicTreeUniverse(scenario.pool);
    const std::int64_t before = gHeapAllocs.load(std::memory_order_relaxed);
    runChurnOverTrace(universe, trace, config);
    return gHeapAllocs.load(std::memory_order_relaxed) - before;
  };

  // Warm both paths once, then compare exact deltas.
  measure(plain);
  measure(gated);
  const std::int64_t base = measure(plain);
  const std::int64_t withLedger = measure(gated);
  EXPECT_EQ(withLedger, base)
      << "a disabled ledger must be exactly allocation-neutral";

  // Same gate on the one-shot protocol.
  const TreeProblem tree = testTree(63);
  DistributedOptions plainOpt;
  plainOpt.seed = 64;
  DistributedOptions gatedOpt = plainOpt;
  gatedOpt.ledger = &nullLedger;
  const auto measureOneShot = [&](const DistributedOptions& opt) {
    const std::int64_t before = gHeapAllocs.load(std::memory_order_relaxed);
    runDistributedUnitTree(tree, opt);
    return gHeapAllocs.load(std::memory_order_relaxed) - before;
  };
  measureOneShot(plainOpt);
  measureOneShot(gatedOpt);
  const std::int64_t oneShotBase = measureOneShot(plainOpt);
  const std::int64_t oneShotGated = measureOneShot(gatedOpt);
  EXPECT_EQ(oneShotGated, oneShotBase);
}

}  // namespace
}  // namespace treesched
