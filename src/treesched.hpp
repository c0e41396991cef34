// Umbrella header: the full public API of the treesched library.
//
// Most applications only need this include. The individual headers remain
// includable for finer-grained dependencies.
#pragma once

// Problem model.
#include "core/demand.hpp"
#include "core/io.hpp"
#include "core/line_problem.hpp"
#include "core/solution.hpp"
#include "core/tree_problem.hpp"
#include "core/universe.hpp"

// Graph substrate.
#include "graph/tree_network.hpp"

// Decompositions (paper §4).
#include "decomp/layering.hpp"
#include "decomp/tree_decomposition.hpp"

// Solvers (paper §5-§7, Appendix A) and baselines.
#include "algo/assignments.hpp"
#include "algo/line_solvers.hpp"
#include "algo/sequential_tree.hpp"
#include "algo/solvers.hpp"
#include "algo/tree_solvers.hpp"

// Distributed message-passing execution (paper §5).
#include "dist/protocol.hpp"

// Network simulation: transports, async lossy wire, synchronizer,
// sharded placement.
#include "net/async_network.hpp"
#include "net/latency.hpp"
#include "net/runner.hpp"
#include "net/shard.hpp"
#include "net/synchronizer.hpp"
#include "net/transport.hpp"

// Exact solvers, baselines and post-processing.
#include "exact/brute_force.hpp"
#include "exact/greedy.hpp"
#include "exact/line_dp.hpp"
#include "exact/local_search.hpp"

// Online scheduling: churn traces, epoch-batched admission, incremental
// re-solve.
#include "online/arrivals.hpp"
#include "online/churn_engine.hpp"
#include "online/incremental.hpp"

// Policy registry: the pluggable Scheduler API over every solver.
#include "policy/config.hpp"
#include "policy/line_pack.hpp"
#include "policy/online_policy.hpp"
#include "policy/registry.hpp"
#include "policy/scheduler.hpp"

// Workload generation.
#include "gen/demand_gen.hpp"
#include "gen/scenario.hpp"
#include "gen/tree_gen.hpp"
