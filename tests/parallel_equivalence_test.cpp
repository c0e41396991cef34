// Parallel-engine bit-equivalence sweep (acceptance gate of the engine/
// subsystem), extending the equivalence chain of dist_equivalence_test
// and async_equivalence_test: parallel ≡ serial ≡ async ≡ sync
// (≡ centralized, by the existing gates).
//
// For every seed x {line, tree} x thread count in {1, 2, 8} the protocol
// must select the same instances and report identical profit, duals,
// lambda and round/message accounting as the 1-thread (serial) engine —
// exact comparisons on purpose: shard merges are by shard id and every
// floating-point accumulation is per-owner, so parallelism must never
// perturb a single bit. Also the MessagePlane canonical-order unit suite,
// CollationIndex units and ParallelRunner coverage/barrier units.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "dist/protocol.hpp"
#include "engine/collate.hpp"
#include "engine/message_plane.hpp"
#include "engine/parallel_runner.hpp"
#include "gen/scenario.hpp"
#include "net/runner.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace treesched {
namespace {

constexpr std::uint64_t kSeeds[] = {3, 14, 25, 36, 47};
constexpr std::int32_t kThreadCounts[] = {1, 2, 8};

TreeProblem sweepTree(std::uint64_t seed) {
  TreeScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numVertices = 16 + static_cast<std::int32_t>(seed % 11);
  cfg.numNetworks = 2 + static_cast<std::int32_t>(seed % 3);
  cfg.demands.numDemands = 14 + static_cast<std::int32_t>(seed % 9);
  cfg.demands.accessProbability = 0.6;
  cfg.demands.profitMax = 8.0;
  return makeTreeScenario(cfg);
}

LineProblem sweepLine(std::uint64_t seed) {
  LineScenarioConfig cfg;
  cfg.seed = seed;
  cfg.numSlots = 28 + static_cast<std::int32_t>(seed % 21);
  cfg.numResources = 2 + static_cast<std::int32_t>(seed % 2);
  cfg.demands.numDemands = 12 + static_cast<std::int32_t>(seed % 8);
  cfg.demands.windowSlack = 0.4;
  cfg.demands.processingMax = 5;
  cfg.demands.accessProbability = 0.7;
  return makeLineScenario(cfg);
}

DistributedOptions sweepOptions(std::uint64_t seed, std::int32_t threads) {
  DistributedOptions opt;
  opt.seed = seed * 17 + 3;
  opt.misRoundBudget = 6;
  opt.stepsPerStage = 5;
  opt.threads = threads;
  return opt;
}

void expectBitIdentical(const DistributedResult& parallel,
                        const DistributedResult& serial) {
  EXPECT_EQ(parallel.solution.instances, serial.solution.instances)
      << "thread count must never change the selected instances";
  EXPECT_EQ(parallel.profit, serial.profit);
  EXPECT_EQ(parallel.dualObjective, serial.dualObjective);
  EXPECT_EQ(parallel.dualUpperBound, serial.dualUpperBound);
  EXPECT_EQ(parallel.lambdaMeasured, serial.lambdaMeasured);
  EXPECT_EQ(parallel.raises, serial.raises);
  EXPECT_EQ(parallel.activeSteps, serial.activeSteps);
  EXPECT_EQ(parallel.network.rounds, serial.network.rounds);
  EXPECT_EQ(parallel.network.busyRounds, serial.network.busyRounds);
  EXPECT_EQ(parallel.network.messages, serial.network.messages);
  EXPECT_EQ(parallel.network.payload, serial.network.payload);
  EXPECT_TRUE(parallel.localViewsConsistent);
}

class ParallelEquivalenceSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelEquivalenceSweep, TreeBitIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  const DistributedResult serial =
      runDistributedUnitTree(problem, sweepOptions(seed, 1));
  for (const std::int32_t threads : kThreadCounts) {
    const DistributedResult parallel =
        runDistributedUnitTree(problem, sweepOptions(seed, threads));
    expectBitIdentical(parallel, serial);
  }
}

TEST_P(ParallelEquivalenceSweep, LineBitIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  const LineProblem problem = sweepLine(seed);
  const DistributedResult serial =
      runDistributedUnitLine(problem, sweepOptions(seed, 1));
  for (const std::int32_t threads : kThreadCounts) {
    const DistributedResult parallel =
        runDistributedUnitLine(problem, sweepOptions(seed, threads));
    expectBitIdentical(parallel, serial);
  }
}

// Crash-stop faults interact with the active sets (dead instances leave
// them for good); the parallel engine must reproduce the serial fault
// semantics exactly.
TEST_P(ParallelEquivalenceSweep, TreeCrashFaultsBitIdentical) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  DistributedOptions serialOpt = sweepOptions(seed, 1);
  serialOpt.crashProcessors = {0, 3, 5};
  serialOpt.crashAtTuple = 7;
  const DistributedResult serial =
      runDistributedUnitTree(problem, serialOpt);
  EXPECT_EQ(serial.crashedProcessors, 3);
  for (const std::int32_t threads : kThreadCounts) {
    DistributedOptions opt = serialOpt;
    opt.threads = threads;
    const DistributedResult parallel = runDistributedUnitTree(problem, opt);
    expectBitIdentical(parallel, serial);
    EXPECT_EQ(parallel.crashedProcessors, serial.crashedProcessors);
  }
}

// The full chain in one place: the parallel engine over the lossy async
// transport must equal the serial engine over the synchronous bus.
TEST_P(ParallelEquivalenceSweep, ParallelOverAsyncEqualsSerialOverSync) {
  const std::uint64_t seed = GetParam();
  const TreeProblem problem = sweepTree(seed);
  const DistributedResult serial =
      runDistributedUnitTree(problem, sweepOptions(seed, 1));

  AsyncConfig net;
  net.seed = seed + 9;
  net.link.latency.model = LatencyModel::Uniform;
  net.link.latency.base = 1.0;
  net.link.latency.spread = 2.0;
  net.link.dropProbability = 0.1;
  net.link.retransmitTimeout = 4.0;
  const DistributedResult parallelAsync =
      runAsyncUnitTree(problem, sweepOptions(seed, 8), net);
  expectBitIdentical(parallelAsync, serial);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalenceSweep,
                         ::testing::ValuesIn(kSeeds),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

// The scale presets stay deterministic and well-formed at test scale.
TEST(ParallelPresets, ScaledPresetsAreDeterministicAndRunnable) {
  const LineProblem line1 = makeMetroLine100k(5, 600);
  const LineProblem line2 = makeMetroLine100k(5, 600);
  EXPECT_EQ(line1.demands.size(), 600u);
  ASSERT_EQ(line1.access.size(), line2.access.size());
  EXPECT_EQ(line1.access, line2.access);
  for (const auto& access : line1.access) {
    EXPECT_GE(access.size(), 1u);
    EXPECT_LE(access.size(), 2u);
  }

  const TreeProblem tree = makeCdnTree250k(5, 400);
  EXPECT_EQ(tree.demands.size(), 400u);

  const DistributedResult serial =
      runDistributedUnitLine(line1, sweepOptions(1, 1));
  const DistributedResult parallel =
      runDistributedUnitLine(line1, sweepOptions(1, 8));
  expectBitIdentical(parallel, serial);
}

// ---- MessagePlane canonical-order unit suite ----

Message msg(MessageKind kind, DemandId from, InstanceId instance,
            double value = 0.0) {
  return {kind, from, instance, value};
}

TEST(MessagePlane, DeliversInCanonicalOrderPerDestination) {
  MessagePlane plane(4);
  // Staged deliberately out of canonical order, across two destinations.
  plane.stage(2, msg(MessageKind::MisActive, 3, 9));
  plane.stage(0, msg(MessageKind::MisJoin, 1, 4));
  plane.stage(2, msg(MessageKind::MisActive, 1, 7));
  plane.stage(2, msg(MessageKind::DualRaise, 1, 5, 0.5));
  plane.stage(0, msg(MessageKind::MisActive, 0, 2));
  EXPECT_TRUE(plane.hasStaged());
  EXPECT_EQ(plane.stagedCount(), 5);
  plane.deliver();

  const auto inbox2 = plane.inbox(2);
  ASSERT_EQ(inbox2.size(), 3u);
  EXPECT_EQ(inbox2[0].from, 1);
  EXPECT_EQ(inbox2[0].instance, 5);  // (1,5) < (1,7) < (3,9)
  EXPECT_EQ(inbox2[1].instance, 7);
  EXPECT_EQ(inbox2[2].from, 3);
  for (std::size_t i = 1; i < inbox2.size(); ++i) {
    EXPECT_FALSE(canonicalMessageLess(inbox2[i], inbox2[i - 1]));
  }

  const auto inbox0 = plane.inbox(0);
  ASSERT_EQ(inbox0.size(), 2u);
  EXPECT_EQ(inbox0[0].from, 0);
  EXPECT_EQ(inbox0[1].from, 1);

  EXPECT_TRUE(plane.inbox(1).empty());
  EXPECT_TRUE(plane.inbox(3).empty());

  const auto active = plane.activeDests();
  ASSERT_EQ(active.size(), 2u);
  EXPECT_EQ(active[0], 0);
  EXPECT_EQ(active[1], 2);
}

TEST(MessagePlane, RoundBoundaryReplacesInboxes) {
  MessagePlane plane(3);
  plane.stage(1, msg(MessageKind::MisActive, 0, 1));
  plane.deliver();
  EXPECT_EQ(plane.inbox(1).size(), 1u);
  plane.deliver();  // empty round
  EXPECT_TRUE(plane.inbox(1).empty());
  EXPECT_TRUE(plane.activeDests().empty());
  EXPECT_EQ(plane.rounds(), 2);
}

TEST(MessagePlane, ClearInboxesDropsDeliveriesButNotStaged) {
  MessagePlane plane(2);
  plane.stage(1, msg(MessageKind::MisActive, 0, 1));
  plane.deliver();
  plane.clearInboxes();
  EXPECT_TRUE(plane.inbox(1).empty());
  EXPECT_TRUE(plane.activeDests().empty());
  plane.stage(0, msg(MessageKind::MisActive, 1, 2));
  EXPECT_THROW(plane.clearInboxes(), CheckError);
}

TEST(MessagePlane, SteadyStateIsAllocationFree) {
  MessagePlane plane(8);
  Rng rng(11);
  const auto playRound = [&] {
    for (int m = 0; m < 100; ++m) {
      plane.stage(static_cast<std::int32_t>(rng.nextBounded(8)),
                  msg(MessageKind::MisActive,
                      static_cast<DemandId>(rng.nextBounded(8)),
                      static_cast<InstanceId>(rng.nextBounded(40))));
    }
    plane.deliver();
  };
  playRound();  // warmup grows the buffers...
  playRound();
  const std::int64_t warmupGrowths = plane.growthEvents();
  EXPECT_GT(warmupGrowths, 0);
  for (int r = 0; r < 50; ++r) {
    playRound();  // ...steady state never does
  }
  EXPECT_EQ(plane.growthEvents(), warmupGrowths);
  EXPECT_LE(plane.lastGrowthRound(), 1);
  EXPECT_EQ(plane.rounds(), 52);
}

TEST(MessagePlane, ParallelSegmentSortMatchesSerial) {
  ParallelRunner runner(4);
  MessagePlane parallel(16);
  MessagePlane serial(16);
  parallel.attachRunner(&runner);
  Rng rng(7);
  for (int m = 0; m < 600; ++m) {
    const auto dest = static_cast<std::int32_t>(rng.nextBounded(16));
    const Message message =
        msg(m % 3 == 0 ? MessageKind::DualRaise : MessageKind::MisActive,
            static_cast<DemandId>(rng.nextBounded(16)),
            static_cast<InstanceId>(rng.nextBounded(64)), rng.nextDouble());
    parallel.stage(dest, message);
    serial.stage(dest, message);
  }
  parallel.deliver();
  serial.deliver();
  for (std::int32_t p = 0; p < 16; ++p) {
    const auto a = parallel.inbox(p);
    const auto b = serial.inbox(p);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_FALSE(canonicalMessageLess(a[i], b[i]));
      EXPECT_FALSE(canonicalMessageLess(b[i], a[i]));
    }
  }
}

TEST(MessagePlane, ParallelFanoutMatchesSerialStaging) {
  // The deferred broadcast fan-out (stageFanout) must deliver exactly
  // what the serial per-neighbour stage() loop delivers — at any thread
  // count, and mixed with direct stage() rows in the same round.
  ParallelRunner runner(4);
  MessagePlane parallel(12);
  MessagePlane serial(12);
  parallel.attachRunner(&runner);
  Rng rng(13);
  std::vector<std::vector<std::int32_t>> destLists;
  for (int f = 0; f < 40; ++f) {
    std::vector<std::int32_t> dests;
    for (std::int32_t d = 0; d < 12; ++d) {
      if (rng.nextBool(0.4)) dests.push_back(d);
    }
    destLists.push_back(std::move(dests));
  }
  for (int round = 0; round < 3; ++round) {
    for (std::size_t f = 0; f < destLists.size(); ++f) {
      const Message message =
          msg(f % 2 == 0 ? MessageKind::MisActive : MessageKind::DualRaise,
              static_cast<DemandId>(f % 12),
              static_cast<InstanceId>(rng.nextBounded(64)),
              rng.nextDouble());
      parallel.stageFanout(message, destLists[f]);
      for (const std::int32_t d : destLists[f]) {
        serial.stage(d, message);
      }
      if (f % 7 == 0) {  // direct rows interleaved with fan-outs
        const Message direct = msg(MessageKind::Accept, 3, 5);
        parallel.stage(4, direct);
        serial.stage(4, direct);
      }
    }
    EXPECT_EQ(parallel.stagedCount(), serial.stagedCount());
    EXPECT_TRUE(parallel.hasStaged());
    parallel.deliver();
    serial.deliver();
    ASSERT_EQ(parallel.deliveredCount(), serial.deliveredCount());
    for (std::int32_t p = 0; p < 12; ++p) {
      const auto a = parallel.inbox(p);
      const auto b = serial.inbox(p);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].from, b[i].from);
        EXPECT_EQ(a[i].instance, b[i].instance);
        EXPECT_EQ(a[i].value, b[i].value);
      }
    }
  }
  // Queued fan-outs guard the silent-round contract like staged rows.
  parallel.stageFanout(msg(MessageKind::MisActive, 0, 1), destLists[0]);
  if (!destLists[0].empty()) {
    EXPECT_THROW(parallel.clearInboxes(), CheckError);
    parallel.deliver();
  }
}

// Field-by-field equality of two planes' last deliveries.
void expectSameInboxes(const MessagePlane& a, const MessagePlane& b) {
  ASSERT_EQ(a.numProcessors(), b.numProcessors());
  ASSERT_EQ(a.deliveredCount(), b.deliveredCount());
  for (std::int32_t p = 0; p < a.numProcessors(); ++p) {
    const auto x = a.inbox(p);
    const auto y = b.inbox(p);
    ASSERT_EQ(x.size(), y.size()) << "inbox " << p;
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].kind, y[i].kind);
      EXPECT_EQ(x[i].from, y[i].from);
      EXPECT_EQ(x[i].instance, y[i].instance);
      EXPECT_EQ(x[i].value, y[i].value);
    }
  }
}

using Adjacency = std::vector<std::vector<std::int32_t>>;

// Sorted neighbour lists: each q != p with probability `density`.
Adjacency randomAdjacency(std::int32_t procs, double density, Rng& rng) {
  Adjacency adjacency(static_cast<std::size_t>(procs));
  for (std::int32_t p = 0; p < procs; ++p) {
    for (std::int32_t q = 0; q < procs; ++q) {
      if (q != p && rng.nextBool(density)) {
        adjacency[static_cast<std::size_t>(p)].push_back(q);
      }
    }
  }
  return adjacency;
}

TEST(MessagePlane, DescendingFanoutsMatchSerialStaging) {
  // Fan-outs staged by descending sender and mixed with stage() rows are
  // out of canonical order, so the round sorts its segments: the inboxes
  // must be the canonical ones of the serial per-destination stage()
  // reference, with and without a runner.
  constexpr std::int32_t kProcs = 20;
  Rng rng(29);
  const auto adjacency = randomAdjacency(kProcs, 0.3, rng);
  ParallelRunner runner(4);
  for (const bool withRunner : {false, true}) {
    MessagePlane plane(kProcs);
    MessagePlane reference(kProcs);
    if (withRunner) plane.attachRunner(&runner);
    for (int round = 0; round < 3; ++round) {
      for (std::int32_t from = kProcs - 1; from >= 0; --from) {
        const auto& dests = adjacency[static_cast<std::size_t>(from)];
        const auto instance = static_cast<InstanceId>(rng.nextBounded(64));
        const Message message =
            msg(MessageKind::DualRaise, from, instance, rng.nextDouble());
        plane.stageFanout(message, dests);
        for (const std::int32_t d : dests) {
          reference.stage(d, message);
        }
        if (from % 4 == 0) {
          const auto dest = static_cast<std::int32_t>(rng.nextBounded(kProcs));
          plane.stage(dest, msg(MessageKind::Accept, from, 7));
          reference.stage(dest, msg(MessageKind::Accept, from, 7));
        }
      }
      plane.deliver();
      reference.deliver();
      expectSameInboxes(plane, reference);
      for (std::int32_t p = 0; p < kProcs; ++p) {
        const auto inbox = plane.inbox(p);
        EXPECT_TRUE(std::ranges::is_sorted(inbox, canonicalMessageLess));
      }
    }
  }
}

TEST(MessagePlane, CanonicalAndShuffledStagingDeliverTheSameInboxes) {
  // One multiset of staged messages, once in canonical order (the round
  // skips its segment sorts) and once shuffled (the round sorts them).
  constexpr std::int32_t kProcs = 16;
  Rng rng(31);
  const auto adjacency = randomAdjacency(kProcs, 0.4, rng);
  struct Entry {
    Message message;
    std::int32_t dest = -1;  ///< -1: fan out over the sender's adjacency
  };
  std::vector<Entry> entries;
  for (int e = 0; e < 120; ++e) {
    const auto from = static_cast<DemandId>(rng.nextBounded(kProcs));
    const auto instance = static_cast<InstanceId>(rng.nextBounded(32));
    const Message message =
        msg(MessageKind::DualRaise, from, instance, rng.nextDouble());
    const auto dest = static_cast<std::int32_t>(rng.nextBounded(kProcs));
    entries.push_back({message, e % 3 == 0 ? dest : -1});
  }
  const auto stageAll = [&](MessagePlane& plane) {
    for (const Entry& entry : entries) {
      const auto from = static_cast<std::size_t>(entry.message.from);
      if (entry.dest >= 0) {
        plane.stage(entry.dest, entry.message);
      } else {
        plane.stageFanout(entry.message, adjacency[from]);
      }
    }
    plane.deliver();
  };
  MessagePlane canonical(kProcs);
  MessagePlane shuffled(kProcs);
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return canonicalMessageLess(a.message, b.message);
  });
  stageAll(canonical);
  rng.shuffle(entries);
  stageAll(shuffled);
  EXPECT_GT(canonical.deliveredCount(), 0);
  expectSameInboxes(canonical, shuffled);
}

TEST(MessagePlane, SteadyStateFanoutsAreAllocationFree) {
  // Every processor broadcasts once per round, in a fresh random order.
  constexpr std::int32_t kProcs = 24;
  Rng rng(37);
  const auto adjacency = randomAdjacency(kProcs, 0.35, rng);
  std::vector<std::int32_t> senders;
  for (std::int32_t p = 0; p < kProcs; ++p) {
    senders.push_back(p);
  }
  MessagePlane plane(kProcs);
  const auto playRound = [&] {
    rng.shuffle(senders);
    for (const std::int32_t from : senders) {
      const auto instance = static_cast<InstanceId>(rng.nextBounded(40));
      const Message message = msg(MessageKind::MisActive, from, instance);
      plane.stageFanout(message, adjacency[static_cast<std::size_t>(from)]);
    }
    plane.deliver();
  };
  playRound();  // warmup grows the buffers...
  playRound();
  const std::int64_t warmupGrowths = plane.growthEvents();
  EXPECT_GT(warmupGrowths, 0);
  for (int r = 0; r < 50; ++r) {
    playRound();  // ...steady state never does
  }
  EXPECT_EQ(plane.growthEvents(), warmupGrowths);
  EXPECT_LE(plane.lastGrowthRound(), 1);
}

// ---- CollationIndex at bitmap word boundaries ----

using Ids = std::vector<std::int32_t>;

// Plays one collation round over `keys` (row r has key keys[r]) and
// checks it: touched() is the sorted set of distinct keys, and each key's
// segment holds exactly its rows, in count order.
void expectRound(CollationIndex& index, const Ids& keys) {
  index.reset();
  for (const std::int32_t key : keys) {
    index.count(key);
  }
  index.layout();
  Ids rows(static_cast<std::size_t>(index.total()), -1);
  for (std::size_t r = 0; r < keys.size(); ++r) {
    const auto slot = static_cast<std::size_t>(index.place(keys[r]));
    rows[slot] = static_cast<std::int32_t>(r);
  }
  index.finish();

  Ids distinct = keys;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  const auto touched = index.touched();
  EXPECT_EQ(Ids(touched.begin(), touched.end()), distinct);
  EXPECT_EQ(index.total(), static_cast<std::int64_t>(keys.size()));
  for (const std::int32_t key : distinct) {
    Ids expected;
    for (std::size_t r = 0; r < keys.size(); ++r) {
      if (keys[r] == key) expected.push_back(static_cast<std::int32_t>(r));
    }
    const auto begin = rows.begin() + index.begin(key);
    const Ids segment(begin, begin + index.length(key));
    EXPECT_EQ(segment, expected) << "key " << key;
  }
}

class CollationIndexWords : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(CollationIndexWords, TouchedKeysAscendAndSegmentsKeepCountOrder) {
  const std::int32_t n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) + 5);
  // Two disjoint key pools; the first holds both end keys.
  Ids first = {0, n - 1};
  Ids second;
  for (std::int32_t key = 1; key + 1 < n; ++key) {
    (rng.nextBool(0.5) ? first : second).push_back(key);
  }
  // Every pool key at least once, plus repeats, in random row order.
  const auto draw = [&](const Ids& pool) {
    Ids keys = pool;
    for (std::size_t extra = 0; extra < 2 * pool.size(); ++extra) {
      keys.push_back(pool[rng.nextBounded(pool.size())]);
    }
    rng.shuffle(keys);
    return keys;
  };

  CollationIndex index(n);
  expectRound(index, draw(first));
  // reset() retires every first-round key.
  expectRound(index, draw(second));
  for (const std::int32_t key : first) {
    EXPECT_EQ(index.length(key), 0) << "key " << key;
  }
  expectRound(index, {});
  EXPECT_TRUE(index.touched().empty());
  for (std::int32_t key = 0; key < n; ++key) {
    EXPECT_EQ(index.length(key), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, CollationIndexWords,
                         ::testing::Values(1, 63, 64, 65, 1000));

// ---- ParallelRunner units ----

TEST(ParallelRunner, PlanCoversRangeExactlyOnce) {
  ParallelRunner runner(3);
  for (const std::int64_t count : {0, 1, 15, 16, 17, 1000, 4097}) {
    const ParallelRunner::ShardPlan plan = runner.plan(count);
    std::int64_t covered = 0;
    for (std::int32_t s = 0; s < plan.numShards; ++s) {
      EXPECT_EQ(plan.begin(s), covered);
      EXPECT_LE(plan.end(s), count);
      covered = plan.end(s);
    }
    EXPECT_EQ(covered, count);
  }
}

TEST(ParallelRunner, ForShardsRunsEveryShardExactlyOnce) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::int32_t threads : {1, 2, 8}) {
    ParallelRunner runner(threads);
    // 240 items make an odd shard count at 2 threads, so the two even
    // shares differ in size and a steal miscounted as its complement
    // shows.
    for (const std::int64_t count : {240, 5000}) {
      const ParallelRunner::ShardPlan plan = runner.plan(count);
      ASSERT_GT(plan.numShards, 1);
      const auto shards = static_cast<std::size_t>(plan.numShards);
      std::vector<std::atomic<std::int32_t>> hits(shards);
      std::vector<std::uint8_t> ranOnCaller(shards);
      for (int repeat = 0; repeat < 20; ++repeat) {
        for (auto& h : hits) h.store(0);
        const std::int64_t claimsBefore = runner.claims();
        const std::int64_t stealsBefore = runner.steals();
        runner.forShards(plan, [&](std::int32_t shard) {
          const auto slot = static_cast<std::size_t>(shard);
          hits[slot].fetch_add(1);
          ranOnCaller[slot] = std::this_thread::get_id() == caller;
        });
        for (const auto& h : hits) {
          EXPECT_EQ(h.load(), 1);
        }
        // Every shard is claimed exactly once, whoever runs it.
        EXPECT_EQ(runner.claims() - claimsBefore, plan.numShards);
        EXPECT_LE(runner.steals(), runner.claims());
        if (threads == 2) {
          // The caller is participant 0 and owns the first
          // floor(n / 2) shards; the one worker owns the rest. A steal
          // is a shard run by the other one.
          std::int64_t stolen = 0;
          for (std::size_t s = 0; s < shards; ++s) {
            stolen += (s < shards / 2) != (ranOnCaller[s] != 0) ? 1 : 0;
          }
          EXPECT_EQ(runner.steals() - stealsBefore, stolen);
        }
      }
    }
    if (threads == 1) {
      EXPECT_EQ(runner.steals(), 0);
    }

    // An empty section runs nothing and claims nothing.
    const ParallelRunner::ShardPlan empty = runner.plan(0);
    EXPECT_EQ(empty.numShards, 0);
    const std::int64_t claimsBefore = runner.claims();
    std::atomic<std::int32_t> ran{0};
    runner.forShards(empty, [&](std::int32_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(runner.claims(), claimsBefore);
  }
}

TEST(ParallelRunner, RejectsThreadCountsAboveTheCeiling) {
  // The check runs before the first worker spawns, so neither count
  // starts a thread.
  EXPECT_THROW(ParallelRunner{ParallelRunner::kMaxThreads + 1}, CheckError);
  EXPECT_THROW(ParallelRunner{std::numeric_limits<std::int32_t>::max()},
               CheckError);
}

TEST(ParallelRunner, PropagatesShardExceptions) {
  ParallelRunner runner(4);
  const ParallelRunner::ShardPlan plan = runner.plan(640);
  EXPECT_THROW(runner.forShards(plan,
                                [&](std::int32_t shard) {
                                  if (shard == plan.numShards - 1) {
                                    throw CheckError("shard failure");
                                  }
                                }),
               CheckError);
  // The pool survives and runs the next section normally.
  std::atomic<std::int32_t> ran{0};
  runner.forShards(plan, [&](std::int32_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), plan.numShards);
}

}  // namespace
}  // namespace treesched
