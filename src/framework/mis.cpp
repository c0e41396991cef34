#include "framework/mis.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace treesched {

std::uint64_t misPriority(std::uint64_t seed, std::int32_t round,
                          InstanceId i) {
  return keyedHash(seed, 0x4d495350u /*'MISP'*/,
                   static_cast<std::uint64_t>(round),
                   static_cast<std::uint64_t>(i));
}

namespace {

enum class Status : std::uint8_t { Inactive, Undecided, In, Out };

}  // namespace

MisResult lubyMis(const InstanceUniverse& universe,
                  std::span<const InstanceId> active, std::uint64_t seed,
                  std::int32_t roundBudget) {
  MisResult result;
  if (active.empty()) return result;

  std::vector<Status> status(static_cast<std::size_t>(universe.numInstances()),
                             Status::Inactive);
  for (const InstanceId i : active) {
    status[static_cast<std::size_t>(i)] = Status::Undecided;
  }

  std::vector<InstanceId> undecided(active.begin(), active.end());
  std::vector<InstanceId> joiners;
  while (!undecided.empty() &&
         (roundBudget <= 0 || result.rounds < roundBudget)) {
    ++result.rounds;
    joiners.clear();
    for (const InstanceId v : undecided) {
      const std::uint64_t pv = misPriority(seed, result.rounds, v);
      // Lexicographic (priority, id) comparison; ids differ, so there
      // are no ties and exactly one of each conflicting pair can win.
      const bool beaten = anyConflict(universe, v, [&](InstanceId w) {
        if (status[static_cast<std::size_t>(w)] != Status::Undecided) {
          return false;
        }
        const std::uint64_t pw = misPriority(seed, result.rounds, w);
        return pw > pv || (pw == pv && w > v);
      });
      if (!beaten) {
        joiners.push_back(v);
      }
    }
    for (const InstanceId v : joiners) {
      status[static_cast<std::size_t>(v)] = Status::In;
      result.independent.push_back(v);
      anyConflict(universe, v, [&](InstanceId w) {
        if (status[static_cast<std::size_t>(w)] == Status::Undecided) {
          status[static_cast<std::size_t>(w)] = Status::Out;
        }
        return false;
      });
    }
    std::erase_if(undecided, [&](InstanceId v) {
      return status[static_cast<std::size_t>(v)] != Status::Undecided;
    });
  }
  result.complete = undecided.empty();
  std::sort(result.independent.begin(), result.independent.end());
  return result;
}

std::string checkMis(const InstanceUniverse& universe,
                     std::span<const InstanceId> active,
                     std::span<const InstanceId> mis) {
  std::vector<bool> inMis(static_cast<std::size_t>(universe.numInstances()),
                          false);
  for (const InstanceId i : mis) {
    inMis[static_cast<std::size_t>(i)] = true;
  }
  for (const InstanceId i : mis) {
    for (const InstanceId j : mis) {
      if (i < j && universe.conflicting(i, j)) {
        std::ostringstream os;
        os << "MIS not independent: " << i << " conflicts " << j;
        return os.str();
      }
    }
  }
  for (const InstanceId v : active) {
    if (inMis[static_cast<std::size_t>(v)]) continue;
    const bool dominated = anyConflict(universe, v, [&](InstanceId w) -> bool {
      return inMis[static_cast<std::size_t>(w)];
    });
    if (!dominated) {
      std::ostringstream os;
      os << "MIS not maximal: active " << v << " undominated";
      return os.str();
    }
  }
  return {};
}

}  // namespace treesched
