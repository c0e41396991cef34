#include "core/tree_problem.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace treesched {

void TreeProblem::validate() const {
  checkThat(numVertices >= 2, "problem has at least two vertices", __FILE__,
            __LINE__);
  checkThat(!networks.empty(), "problem has at least one network", __FILE__,
            __LINE__);
  for (const TreeNetwork& t : networks) {
    checkThat(t.numVertices() == numVertices,
              "network spans the shared vertex set", __FILE__, __LINE__);
  }
  checkThat(demands.size() == access.size(),
            "one accessibility list per demand", __FILE__, __LINE__);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    checkThat(d.id == static_cast<DemandId>(i), "demand ids are positional",
              __FILE__, __LINE__);
    checkIndex(d.u, numVertices, "demand endpoint u");
    checkIndex(d.v, numVertices, "demand endpoint v");
    checkThat(d.u != d.v, "demand endpoints are distinct", __FILE__, __LINE__);
    checkThat(d.profit > 0, "demand profit positive", __FILE__, __LINE__);
    checkThat(d.height > 0 && d.height <= 1.0, "demand height in (0,1]",
              __FILE__, __LINE__);
    const auto& acc = access[i];
    checkThat(!acc.empty(), "accessibility list non-empty", __FILE__, __LINE__);
    checkThat(std::is_sorted(acc.begin(), acc.end()),
              "accessibility list sorted", __FILE__, __LINE__);
    checkThat(std::adjacent_find(acc.begin(), acc.end()) == acc.end(),
              "accessibility list duplicate-free", __FILE__, __LINE__);
    for (const TreeId t : acc) {
      checkIndex(t, numNetworks(), "accessible network id");
    }
  }
}

bool TreeProblem::isUnitHeight() const {
  return std::all_of(demands.begin(), demands.end(),
                     [](const Demand& d) { return d.height == 1.0; });
}

}  // namespace treesched
