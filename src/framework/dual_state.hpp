// Dual variables of the packing LP (paper §3.1 / §6.1).
//
// alpha(a) per demand, beta(e) per global edge. The primal-dual framework
// only ever *raises* these (monotonically from 0); the objective
// val(alpha, beta) = sum alpha + sum beta upper-bounds lambda * OPT by weak
// duality once every instance is lambda-satisfied.
#pragma once

#include <vector>

#include "core/universe.hpp"

namespace treesched {

class DualState {
 public:
  /// Accepts any universe shape (InstanceUniverse or DynamicUniverse):
  /// only the demand and global-edge counts matter, and both are
  /// pool-level constants under churn.
  template <class U>
  explicit DualState(const U& universe)
      : alpha_(static_cast<std::size_t>(universe.numDemands()), 0.0),
        beta_(static_cast<std::size_t>(universe.numGlobalEdges()), 0.0) {}

  double alpha(DemandId d) const { return alpha_[static_cast<std::size_t>(d)]; }
  double beta(GlobalEdgeId e) const {
    return beta_[static_cast<std::size_t>(e)];
  }

  void raiseAlpha(DemandId d, double by) {
    alpha_[static_cast<std::size_t>(d)] += by;
  }
  void raiseBeta(GlobalEdgeId e, double by) {
    beta_[static_cast<std::size_t>(e)] += by;
  }

  /// Overwrites (used by the distributed simulator when adopting received
  /// values; raises are idempotent there because values only grow).
  void setBeta(GlobalEdgeId e, double value) {
    beta_[static_cast<std::size_t>(e)] = value;
  }

  /// val(alpha, beta) = sum of all dual variables.
  double objective() const;

  std::size_t numDemands() const { return alpha_.size(); }

 private:
  std::vector<double> alpha_;
  std::vector<double> beta_;
};

}  // namespace treesched
