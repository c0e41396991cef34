#include "algo/assignments.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/tolerances.hpp"

namespace treesched {

std::string checkAssignments(const TreeProblem& problem,
                             const std::vector<TreeAssignment>& assignments) {
  std::vector<bool> used(static_cast<std::size_t>(problem.numDemands()), false);
  // Edge loads per network.
  std::vector<std::vector<double>> load(
      static_cast<std::size_t>(problem.numNetworks()));
  for (TreeId t = 0; t < problem.numNetworks(); ++t) {
    load[static_cast<std::size_t>(t)].assign(
        static_cast<std::size_t>(problem.networks[static_cast<std::size_t>(t)]
                                     .numEdges()),
        0.0);
  }
  for (const TreeAssignment& a : assignments) {
    if (a.demand < 0 || a.demand >= problem.numDemands()) {
      return "assignment references unknown demand";
    }
    if (used[static_cast<std::size_t>(a.demand)]) {
      std::ostringstream os;
      os << "demand " << a.demand << " assigned twice";
      return os.str();
    }
    used[static_cast<std::size_t>(a.demand)] = true;
    const auto& acc = problem.access[static_cast<std::size_t>(a.demand)];
    if (!std::binary_search(acc.begin(), acc.end(), a.network)) {
      std::ostringstream os;
      os << "demand " << a.demand << " cannot access network " << a.network;
      return os.str();
    }
    const Demand& dem = problem.demands[static_cast<std::size_t>(a.demand)];
    const TreeNetwork& net =
        problem.networks[static_cast<std::size_t>(a.network)];
    for (const EdgeId e : net.pathEdges(dem.u, dem.v)) {
      double& l = load[static_cast<std::size_t>(a.network)]
                      [static_cast<std::size_t>(e)];
      l += dem.height;
      if (l > 1.0 + kCapacityTolerance) {
        std::ostringstream os;
        os << "network " << a.network << " edge " << e << " over capacity";
        return os.str();
      }
    }
  }
  return {};
}

std::string checkAssignments(const LineProblem& problem,
                             const std::vector<LineAssignment>& assignments) {
  std::vector<bool> used(static_cast<std::size_t>(problem.numDemands()), false);
  std::vector<std::vector<double>> load(
      static_cast<std::size_t>(problem.numResources),
      std::vector<double>(static_cast<std::size_t>(problem.numSlots), 0.0));
  for (const LineAssignment& a : assignments) {
    if (a.demand < 0 || a.demand >= problem.numDemands()) {
      return "assignment references unknown demand";
    }
    if (used[static_cast<std::size_t>(a.demand)]) {
      std::ostringstream os;
      os << "demand " << a.demand << " assigned twice";
      return os.str();
    }
    used[static_cast<std::size_t>(a.demand)] = true;
    const auto& acc = problem.access[static_cast<std::size_t>(a.demand)];
    if (!std::binary_search(acc.begin(), acc.end(), a.resource)) {
      std::ostringstream os;
      os << "demand " << a.demand << " cannot access resource " << a.resource;
      return os.str();
    }
    const WindowDemand& dem =
        problem.demands[static_cast<std::size_t>(a.demand)];
    if (a.start < dem.release ||
        a.start + dem.processing - 1 > dem.deadline) {
      std::ostringstream os;
      os << "demand " << a.demand << " scheduled outside its window";
      return os.str();
    }
    for (std::int32_t s = a.start; s < a.start + dem.processing; ++s) {
      double& l = load[static_cast<std::size_t>(a.resource)]
                      [static_cast<std::size_t>(s)];
      l += dem.height;
      if (l > 1.0 + kCapacityTolerance) {
        std::ostringstream os;
        os << "resource " << a.resource << " slot " << s << " over capacity";
        return os.str();
      }
    }
  }
  return {};
}

}  // namespace treesched
