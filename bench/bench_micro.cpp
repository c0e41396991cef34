// Experiment E12 — micro-benchmarks (google-benchmark): the substrate
// operations that dominate the simulation's wall-clock.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "decomp/tree_decomposition.hpp"
#include "engine/message_plane.hpp"
#include "engine/parallel_runner.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "gen/tree_gen.hpp"
#include "net/async_network.hpp"
#include "util/rng.hpp"

namespace treesched {
namespace {

void BM_LcaQuery(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  Rng rng(1);
  const TreeNetwork t = generateTree(TreeShape::UniformRandom, 0, n, rng);
  Rng pick(2);
  for (auto _ : state) {
    const auto u = static_cast<VertexId>(
        pick.nextBounded(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<VertexId>(
        pick.nextBounded(static_cast<std::uint64_t>(n)));
    benchmark::DoNotOptimize(t.lca(u, v));
  }
}
BENCHMARK(BM_LcaQuery)->Arg(256)->Arg(4096)->Arg(65536);

void BM_IdealDecomposition(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  Rng rng(3);
  const TreeNetwork t = generateTree(TreeShape::UniformRandom, 0, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idealDecomposition(t));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_IdealDecomposition)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();

void BM_BalancingDecomposition(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  Rng rng(4);
  const TreeNetwork t = generateTree(TreeShape::UniformRandom, 0, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(balancingDecomposition(t));
  }
}
BENCHMARK(BM_BalancingDecomposition)->Arg(1024)->Arg(4096);

TreeProblem microProblem(std::int32_t n, std::int32_t m) {
  TreeScenarioConfig cfg;
  cfg.seed = 5;
  cfg.numVertices = n;
  cfg.numNetworks = 3;
  cfg.demands.numDemands = m;
  cfg.demands.accessProbability = 0.7;
  return makeTreeScenario(cfg);
}

void BM_TreeLayering(benchmark::State& state) {
  const auto m = static_cast<std::int32_t>(state.range(0));
  const TreeProblem problem = microProblem(128, m);
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buildTreeLayering(problem, u));
  }
}
BENCHMARK(BM_TreeLayering)->Arg(128)->Arg(512);

void BM_TwoPhaseEngine(benchmark::State& state) {
  const auto m = static_cast<std::int32_t>(state.range(0));
  const TreeProblem problem = microProblem(64, m);
  const InstanceUniverse u = InstanceUniverse::fromTreeProblem(problem);
  const Layering layering = buildTreeLayering(problem, u);
  FrameworkConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runTwoPhase(u, layering, cfg));
  }
}
BENCHMARK(BM_TwoPhaseEngine)->Arg(128)->Arg(512);

// One busy protocol round on the flat message plane, shaped like
// oneshot_cdn_tree's: senders broadcast in ascending order over sorted
// lists of ~36 neighbours. Args: processors, percent of them sending
// (100 = dense round, 1 = sparse round).
void BM_PlaneDeliver(benchmark::State& state) {
  const auto procs = static_cast<std::int32_t>(state.range(0));
  const auto percent = static_cast<std::int32_t>(state.range(1));
  Rng rng(6);
  std::vector<std::vector<std::int32_t>> adjacency(
      static_cast<std::size_t>(procs));
  for (auto& dests : adjacency) {
    for (int k = 0; k < 36; ++k) {
      dests.push_back(static_cast<std::int32_t>(rng.nextBounded(procs)));
    }
    std::sort(dests.begin(), dests.end());
    dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  }
  MessagePlane plane(procs);
  std::int64_t delivered = 0;
  for (auto _ : state) {
    for (std::int32_t p = 0; p < procs; ++p) {
      if (p % 100 >= percent) continue;
      const Message message{MessageKind::MisActive, p, p, 0.0};
      plane.stageFanout(message, adjacency[static_cast<std::size_t>(p)]);
    }
    plane.deliver();
    for (const std::int32_t p : plane.activeDests()) {
      benchmark::DoNotOptimize(plane.inbox(p));
    }
    delivered += plane.deliveredCount();
  }
  state.SetItemsProcessed(delivered);
}
BENCHMARK(BM_PlaneDeliver)->Args({25'000, 100})->Args({25'000, 1});

// One ParallelRunner section of light, uneven per-item work (1–32
// multiply-adds each), shaped like a protocol round's per-processor
// steps: what a section costs beyond its work, i.e. waking the workers,
// claiming shards and the barrier. Args: threads, items. Real time,
// since the calling thread waits at the barrier.
void BM_ForShards(benchmark::State& state) {
  ParallelRunner runner(static_cast<std::int32_t>(state.range(0)));
  const std::int64_t items = state.range(1);
  Rng rng(7);
  std::vector<std::uint64_t> work(static_cast<std::size_t>(items));
  for (std::uint64_t& w : work) w = 1 + rng.nextBounded(32);
  std::vector<std::uint64_t> out(work.size());
  const ParallelRunner::ShardPlan plan = runner.plan(items);
  for (auto _ : state) {
    runner.forShards(plan, [&](std::int32_t shard) {
      const std::int64_t end = plan.end(shard);
      for (std::int64_t i = plan.begin(shard); i < end; ++i) {
        const auto item = static_cast<std::size_t>(i);
        std::uint64_t h = work[item];
        for (std::uint64_t r = 0; r < work[item]; ++r) {
          h = h * 0x9e3779b97f4a7c15u + r;
        }
        out[item] = h;
      }
    });
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * items);
}
BENCHMARK(BM_ForShards)
    ->ArgsProduct({{1, 2, 4}, {64, 1'024, 65'536}})
    ->UseRealTime();

// One flush of the async lossy wire on hotspot_async's link (heavy-tail
// latency, base 1, Pareto shape 1.5, cap 64; 5% drops; timeout 16): N
// packets between random endpoints of a 300-endpoint network, two in
// three of them control packets, as safe markers are on that workload.
// Arg: packets per flush.
void BM_AsyncFlush(benchmark::State& state) {
  const auto packets = static_cast<std::size_t>(state.range(0));
  constexpr std::int32_t kEndpoints = 300;
  AsyncLinkConfig link;
  link.latency.model = LatencyModel::HeavyTail;
  link.latency.base = 1.0;
  link.latency.tailShape = 1.5;
  link.latency.tailCap = 64.0;
  link.dropProbability = 0.05;
  link.retransmitTimeout = 16.0;
  AsyncNetwork net(kEndpoints, link, 1);
  Rng rng(8);
  std::vector<std::pair<std::int32_t, std::int32_t>> links(packets);
  for (auto& [from, to] : links) {
    from = static_cast<std::int32_t>(rng.nextBounded(kEndpoints));
    const auto hop = static_cast<std::int32_t>(rng.nextBounded(kEndpoints - 1));
    to = (from + 1 + hop) % kEndpoints;
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < packets; ++i) {
      const auto [from, to] = links[i];
      net.send(from, to,
               {MessageKind::MisActive, from, static_cast<InstanceId>(i), 0.0},
               /*control=*/i % 3 != 0);
    }
    benchmark::DoNotOptimize(net.flush());
    net.drainDeliveries();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_AsyncFlush)->Arg(64)->Arg(1'024)->Arg(16'384);

}  // namespace
}  // namespace treesched

BENCHMARK_MAIN();
