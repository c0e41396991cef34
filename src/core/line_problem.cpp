#include "core/line_problem.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace treesched {

void LineProblem::validate() const {
  checkThat(numSlots >= 1, "timeline has at least one slot", __FILE__,
            __LINE__);
  checkThat(numResources >= 1, "at least one resource", __FILE__, __LINE__);
  checkThat(demands.size() == access.size(),
            "one accessibility list per demand", __FILE__, __LINE__);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const WindowDemand& d = demands[i];
    checkThat(d.id == static_cast<DemandId>(i), "demand ids are positional",
              __FILE__, __LINE__);
    checkThat(d.release >= 0 && d.release < numSlots, "release in timeline",
              __FILE__, __LINE__);
    checkThat(d.deadline >= d.release && d.deadline < numSlots,
              "deadline in timeline and after release", __FILE__, __LINE__);
    checkThat(d.processing >= 1, "processing time positive", __FILE__,
              __LINE__);
    checkThat(d.release + d.processing - 1 <= d.deadline,
              "processing fits in window", __FILE__, __LINE__);
    checkThat(d.profit > 0, "demand profit positive", __FILE__, __LINE__);
    checkThat(d.height > 0 && d.height <= 1.0, "demand height in (0,1]",
              __FILE__, __LINE__);
    const auto& acc = access[i];
    checkThat(!acc.empty(), "accessibility list non-empty", __FILE__, __LINE__);
    checkThat(std::is_sorted(acc.begin(), acc.end()),
              "accessibility list sorted", __FILE__, __LINE__);
    checkThat(std::adjacent_find(acc.begin(), acc.end()) == acc.end(),
              "accessibility list duplicate-free", __FILE__, __LINE__);
    for (const ResourceId r : acc) {
      checkIndex(r, numResources, "accessible resource id");
    }
  }
}

bool LineProblem::isUnitHeight() const {
  return std::all_of(demands.begin(), demands.end(),
                     [](const WindowDemand& d) { return d.height == 1.0; });
}

std::vector<std::vector<ResourceId>> fullLineAccess(std::int32_t numDemands,
                                                    std::int32_t numResources) {
  std::vector<ResourceId> all(static_cast<std::size_t>(numResources));
  for (ResourceId r = 0; r < numResources; ++r) {
    all[static_cast<std::size_t>(r)] = r;
  }
  return std::vector<std::vector<ResourceId>>(
      static_cast<std::size_t>(numDemands), all);
}

WindowDemand makeIntervalDemand(DemandId id, std::int32_t start,
                                std::int32_t end, double profit,
                                double height) {
  checkThat(end >= start, "interval end >= start", __FILE__, __LINE__);
  WindowDemand d;
  d.id = id;
  d.release = start;
  d.deadline = end;
  d.processing = end - start + 1;
  d.profit = profit;
  d.height = height;
  return d;
}

}  // namespace treesched
