// Experiment E12 — micro-benchmarks (google-benchmark): the substrate
// operations that dominate the simulation's wall-clock.
#include <benchmark/benchmark.h>

#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "decomp/tree_decomposition.hpp"
#include "framework/two_phase.hpp"
#include "gen/scenario.hpp"
#include "gen/tree_gen.hpp"

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

}  // namespace
}  // namespace treesched

BENCHMARK_MAIN();
