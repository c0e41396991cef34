// Maximal independent set on the conflict graph — Luby's algorithm [14].
//
// Each round, every undecided instance draws a priority that is a pure
// function of (seed, round, instance id); local maxima join the MIS and
// their neighbours drop out. Because priorities are seed-keyed hashes (not
// stateful RNG draws), the centralized engine and the message-passing
// simulator compute byte-identical independent sets — the round count here
// is exactly the number of communication rounds the protocol would take.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/universe.hpp"

namespace treesched {

struct MisResult {
  std::vector<InstanceId> independent;  ///< ascending instance ids
  std::int32_t rounds = 0;              ///< Luby rounds executed
  bool complete = true;  ///< false if the round budget expired with
                         ///< undecided vertices (set is still independent,
                         ///< possibly not maximal)
};

/// Priority of instance `i` in `round` under `seed`. Ties are broken by
/// instance id (compare (priority, id) lexicographically).
std::uint64_t misPriority(std::uint64_t seed, std::int32_t round, InstanceId i);

/// Runs Luby's MIS on the conflict subgraph induced by `active`, with
/// conflicts enumerated by anyConflict. `roundBudget <= 0` runs to
/// completion (always maximal).
MisResult lubyMis(const InstanceUniverse& universe,
                  std::span<const InstanceId> active, std::uint64_t seed,
                  std::int32_t roundBudget = 0);

/// Checks independence + maximality within `active`; returns empty string
/// when valid (test helper).
std::string checkMis(const InstanceUniverse& universe,
                     std::span<const InstanceId> active,
                     std::span<const InstanceId> mis);

}  // namespace treesched
