// Named scenario presets: one call builds a complete, validated problem.
// Used by the benchmark harnesses, the examples and the property tests so
// that every consumer sees identical workloads for a given seed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/line_problem.hpp"
#include "core/tree_problem.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "gen/demand_gen.hpp"
#include "gen/tree_gen.hpp"
#include "net/synchronizer.hpp"
#include "online/arrivals.hpp"

namespace treesched {

struct TreeScenarioConfig {
  std::uint64_t seed = 1;
  std::int32_t numVertices = 64;
  std::int32_t numNetworks = 3;
  TreeShape shape = TreeShape::UniformRandom;
  DemandGenConfig demands;
};

/// Builds and validates a tree problem: `numNetworks` independent trees of
/// the given shape over a shared vertex set plus random demands.
TreeProblem makeTreeScenario(const TreeScenarioConfig& config);

struct LineScenarioConfig {
  std::uint64_t seed = 1;
  std::int32_t numSlots = 128;
  std::int32_t numResources = 3;
  LineDemandGenConfig demands;
};

/// Builds and validates a line problem.
LineProblem makeLineScenario(const LineScenarioConfig& config);

// ---- lossy_wide_area: the async/lossy stress preset --------------------
//
// A wide-area deployment: power-law profits, dense network access, and a
// wire with heavy-tail (Pareto) latencies, a nonzero i.i.d. drop rate and
// locality-aware sharding — the workload of the async paper experiment
// (`bench_paper --experiment async`, E12). Problem and transport ship
// together so every consumer measures the same wire under the same load.

struct LossyWideAreaTreeScenario {
  TreeProblem problem;
  AsyncConfig net;
};

struct LossyWideAreaLineScenario {
  LineProblem problem;
  AsyncConfig net;
};

// Default demand counts of the named presets — single source for the
// default arguments below and the scenarioPresets() registry.
inline constexpr std::int32_t kLossyWideAreaTreeDemands = 36;
inline constexpr std::int32_t kLossyWideAreaLineDemands = 30;
inline constexpr std::int32_t kMetroLineDemands = 100'000;
inline constexpr std::int32_t kCdnTreeDemands = 250'000;
inline constexpr std::int32_t kFlashCrowdDemands = 50'000;
inline constexpr std::int32_t kDiurnalMetroDemands = 100'000;
inline constexpr std::int32_t kHotspotTreeDemands = 50'000;

/// Tree variant: `numDemands` demands over `numNetworks` trees on
/// `numVertices` vertices, sharded onto `shardProcessors` simulated
/// processors (<= 0 keeps one processor per demand).
LossyWideAreaTreeScenario makeLossyWideAreaTree(
    std::uint64_t seed, std::int32_t numVertices = 48,
    std::int32_t numNetworks = 3,
    std::int32_t numDemands = kLossyWideAreaTreeDemands,
    std::int32_t shardProcessors = 6);

/// Line variant of the same wide-area wire.
LossyWideAreaLineScenario makeLossyWideAreaLine(
    std::uint64_t seed, std::int32_t numSlots = 96,
    std::int32_t numResources = 3,
    std::int32_t numDemands = kLossyWideAreaLineDemands,
    std::int32_t shardProcessors = 5);

// ---- Production-scale parallel-engine presets --------------------------
//
// The workloads the parallel bench (bench_parallel, BENCH_parallel.json)
// tracks across PRs: 10^5-entity problems with thousands of networks so
// the communication graph stays bounded-degree (the regime the paper's
// O(M)-message discipline targets) while the round loops carry enough
// per-round work for the thread pool to bite. `numDemands` scales the
// whole preset down proportionally (CI smoke and unit tests run them at
// a few thousand demands); resource/network counts scale with it.

/// metro_line_100k: a metropolitan transit schedule — numDemands window
/// jobs (tight windows, processing 2..6 slots) over ~numDemands/16 line
/// resources, 1-2 accessible resources each, power-law profits.
LineProblem makeMetroLine100k(std::uint64_t seed,
                              std::int32_t numDemands = kMetroLineDemands);

/// cdn_tree_250k: a content-delivery fabric — numDemands transfer
/// demands over ~numDemands/16 low-diameter (random-attachment) trees on
/// a shared 48-vertex site set, 1-2 accessible trees each, power-law
/// profits.
TreeProblem makeCdnTree250k(std::uint64_t seed,
                            std::int32_t numDemands = kCdnTreeDemands);

// ---- Online churn presets (src/online/) --------------------------------
//
// A churn preset ships a demand pool together with the arrival process
// and the epoch length the churn engine batches it into, so the bench
// (bench_online, BENCH_online.json), the tests and the demo all replay
// identical time-varying workloads for a given seed. Both pools use
// count-based accessibility over many networks, so per-epoch churn
// touches a strict subset of the networks and the incremental re-solver's
// affected region stays well below the whole instance (the re-solve
// fraction the bench tracks).

struct ChurnTreeScenario {
  TreeProblem pool;
  ArrivalConfig arrivals;
  double epochLength = 8.0;
};

struct ChurnLineScenario {
  LineProblem pool;
  ArrivalConfig arrivals;
  double epochLength = 8.0;
};

/// flash_crowd_50k: the CDN fabric under a viral spike — numDemands
/// transfer demands (cdn_tree_250k pool shape, ~numDemands/8 networks);
/// 60% of them arrive inside a burst of ~2 epochs at a quarter of the
/// horizon, the rest trickle in Poisson-style.
ChurnTreeScenario makeFlashCrowdTree50k(
    std::uint64_t seed, std::int32_t numDemands = kFlashCrowdDemands);

/// diurnal_metro_100k: the metropolitan line schedule under a day/night
/// wave — numDemands window jobs (metro_line_100k pool shape,
/// ~numDemands/8 resources) arriving along two sinusoidal cycles.
ChurnLineScenario makeDiurnalMetroLine100k(
    std::uint64_t seed, std::int32_t numDemands = kDiurnalMetroDemands);

/// hotspot_tree_50k: the CDN fabric under attack — the adversarial
/// targeted_burst churn model hammers a hash-picked set of hot networks
/// with a synchronized arrival wave AND a correlated mass departure a
/// few epochs later, concentrating both churn waves on one region
/// (online/arrivals.hpp ArrivalModel::TargetedBurst; generate the trace
/// with the access-aware generateChurnTrace overload).
ChurnTreeScenario makeHotspotTree50k(
    std::uint64_t seed, std::int32_t numDemands = kHotspotTreeDemands);

// ---- Preset registry ---------------------------------------------------

/// One row per named preset, so tools can enumerate the catalogue
/// (examples/distributed_demo --list-presets) without reading source.
struct ScenarioPresetInfo {
  std::string name;
  std::string kind;  ///< "tree", "line", "tree+churn", "line+churn", ...
  std::int32_t defaultDemands = 0;
  std::string summary;
};

/// Every named preset of this header, in declaration order.
std::vector<ScenarioPresetInfo> scenarioPresets();

// ---- Uniform preset instantiation --------------------------------------

/// A named preset instantiated as a solver-ready problem: the instance
/// universe, the unit-demand layering and the
/// accessibility lists every Scheduler consumes (policy/scheduler.hpp).
/// Churn presets additionally carry their generated trace and epoch
/// length so online consumers replay the same time-varying workload.
struct ScenarioProblem {
  InstanceUniverse universe;
  Layering layering;
  /// Per-demand accessible network ids (the pool problem's lists).
  std::vector<std::vector<std::int32_t>> access;
  std::int32_t numNetworks = 0;
  bool hasChurn = false;  ///< true for the "+churn" presets
  ChurnTrace trace;       ///< empty unless hasChurn
  double epochLength = 8.0;
  /// Pool problem handle — exactly one non-null, matching the preset
  /// kind. Online consumers build their DynamicUniverse from it
  /// (makeDynamicTreeUniverse / makeDynamicLineUniverse) without copying
  /// the pool.
  std::shared_ptr<const TreeProblem> treePool;
  std::shared_ptr<const LineProblem> linePool;
};

/// Instantiates the preset called `name` (see scenarioPresets()) at
/// `numDemands` demands (<= 0 keeps the preset default). One entry
/// point over the whole catalogue, so the tournament bench, the policy
/// tests and the demos all build byte-identical workloads from a
/// (name, seed, scale) triple. Throws CheckError on an unknown name.
ScenarioProblem buildScenarioProblem(const std::string& name,
                                     std::uint64_t seed,
                                     std::int32_t numDemands = 0);

}  // namespace treesched
