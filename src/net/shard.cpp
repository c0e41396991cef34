#include "net/shard.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace treesched {

namespace {

void finalize(ShardPlacement& placement) {
  placement.demandsOfProcessor.assign(
      static_cast<std::size_t>(placement.numProcessors), {});
  for (DemandId d = 0; d < placement.numDemands(); ++d) {
    const std::int32_t p =
        placement.processorOfDemand[static_cast<std::size_t>(d)];
    checkIndex(p, placement.numProcessors, "shard placement entry");
    placement.demandsOfProcessor[static_cast<std::size_t>(p)].push_back(d);
  }
}

}  // namespace

ShardPlacement ShardPlacement::identity(std::int32_t numDemands) {
  checkThat(numDemands > 0, "placement needs demands", __FILE__, __LINE__);
  ShardPlacement placement;
  placement.numProcessors = numDemands;
  placement.processorOfDemand.resize(static_cast<std::size_t>(numDemands));
  for (DemandId d = 0; d < numDemands; ++d) {
    placement.processorOfDemand[static_cast<std::size_t>(d)] = d;
  }
  finalize(placement);
  return placement;
}

ShardPlacement ShardPlacement::build(
    ShardStrategy strategy,
    const std::vector<std::vector<std::int32_t>>& access,
    std::int32_t numProcessors) {
  const auto numDemands = static_cast<std::int32_t>(access.size());
  checkThat(numDemands > 0, "placement needs demands", __FILE__, __LINE__);
  checkThat(numProcessors > 0, "placement needs processors", __FILE__,
            __LINE__);
  numProcessors = std::min(numProcessors, numDemands);

  ShardPlacement placement;
  placement.numProcessors = numProcessors;
  placement.processorOfDemand.resize(static_cast<std::size_t>(numDemands));

  switch (strategy) {
    case ShardStrategy::RoundRobin:
      for (DemandId d = 0; d < numDemands; ++d) {
        placement.processorOfDemand[static_cast<std::size_t>(d)] =
            d % numProcessors;
      }
      break;
    case ShardStrategy::Locality: {
      // Order by home network (smallest accessible id; demands with no
      // access sort last), then cut into near-equal contiguous blocks.
      std::vector<DemandId> order(static_cast<std::size_t>(numDemands));
      for (DemandId d = 0; d < numDemands; ++d) {
        order[static_cast<std::size_t>(d)] = d;
      }
      const auto homeNetwork = [&access](DemandId d) {
        const auto& nets = access[static_cast<std::size_t>(d)];
        if (nets.empty()) return std::numeric_limits<std::int32_t>::max();
        return *std::min_element(nets.begin(), nets.end());
      };
      std::stable_sort(order.begin(), order.end(),
                       [&](DemandId a, DemandId b) {
                         return homeNetwork(a) < homeNetwork(b);
                       });
      for (std::int32_t rank = 0; rank < numDemands; ++rank) {
        // Block sizes differ by at most one: block p covers ranks in
        // [p * numDemands / numProcessors, (p+1) * numDemands / numProc).
        const auto p = static_cast<std::int32_t>(
            (static_cast<std::int64_t>(rank) * numProcessors) / numDemands);
        placement.processorOfDemand[static_cast<std::size_t>(
            order[static_cast<std::size_t>(rank)])] = p;
      }
      break;
    }
  }
  finalize(placement);
  return placement;
}

ShardPlacement ShardPlacement::livePool(
    const std::vector<std::vector<std::int32_t>>& access,
    std::int32_t numProcessors) {
  const auto numDemands = static_cast<std::int32_t>(access.size());
  checkThat(numDemands > 0, "placement needs demands", __FILE__, __LINE__);
  checkThat(numProcessors > 0, "placement needs processors", __FILE__,
            __LINE__);
  numProcessors = std::min(numProcessors, numDemands);

  ShardPlacement placement;
  placement.live = true;
  placement.numProcessors = numProcessors;
  placement.processorOfDemand.assign(static_cast<std::size_t>(numDemands),
                                     kUnplaced);
  placement.demandsOfProcessor.assign(
      static_cast<std::size_t>(numProcessors), {});
  placement.liveOfProcessor.assign(static_cast<std::size_t>(numProcessors),
                                   0);
  placement.tombstonesOfProcessor.assign(
      static_cast<std::size_t>(numProcessors), 0);
  placement.homeNetwork.resize(static_cast<std::size_t>(numDemands));
  for (DemandId d = 0; d < numDemands; ++d) {
    placement.homeNetwork[static_cast<std::size_t>(d)] =
        homeNetworkOf(access[static_cast<std::size_t>(d)]);
  }
  placement.weightOfDemand.assign(static_cast<std::size_t>(numDemands), 1);
  placement.weightedLoadOfProcessor.assign(
      static_cast<std::size_t>(numProcessors), 0);
  return placement;
}

std::int32_t homeNetworkOf(const std::vector<std::int32_t>& access) {
  if (access.empty()) return -1;
  return *std::min_element(access.begin(), access.end());
}

std::int32_t ShardPlacement::placeDemand(DemandId d) {
  checkThat(live, "placeDemand on a live placement", __FILE__, __LINE__);
  checkIndex(d, numDemands(), "placeDemand");
  checkThat(!isPlaced(d), "placeDemand target unplaced", __FILE__, __LINE__);

  const std::int32_t net = homeNetwork[static_cast<std::size_t>(d)];
  std::int32_t p = kUnplaced;
  if (net >= 0) {
    const auto anchor = networkAnchors.find(net);
    if (anchor != networkAnchors.end()) {
      p = anchor->second.processor;
      ++anchor->second.refs;
    }
  }
  if (p == kUnplaced) {
    p = 0;
    for (std::int32_t q = 1; q < numProcessors; ++q) {
      if (weightedLoadOfProcessor[static_cast<std::size_t>(q)] <
          weightedLoadOfProcessor[static_cast<std::size_t>(p)]) {
        p = q;
      }
    }
    if (net >= 0) {
      networkAnchors.emplace(net, NetworkAnchor{p, 1});
    }
  }
  processorOfDemand[static_cast<std::size_t>(d)] = p;
  demandsOfProcessor[static_cast<std::size_t>(p)].push_back(d);
  ++liveOfProcessor[static_cast<std::size_t>(p)];
  weightedLoadOfProcessor[static_cast<std::size_t>(p)] +=
      weightOfDemand[static_cast<std::size_t>(d)];
  return p;
}

void ShardPlacement::setDemandWeight(DemandId d, std::int64_t weight) {
  checkThat(live, "setDemandWeight on a live placement", __FILE__, __LINE__);
  checkIndex(d, numDemands(), "setDemandWeight");
  checkThat(weight >= 1, "demand weight >= 1", __FILE__, __LINE__);
  const std::int64_t delta =
      weight - weightOfDemand[static_cast<std::size_t>(d)];
  weightOfDemand[static_cast<std::size_t>(d)] = weight;
  if (isPlaced(d)) {
    const std::int32_t p = processorOfDemand[static_cast<std::size_t>(d)];
    weightedLoadOfProcessor[static_cast<std::size_t>(p)] += delta;
  }
}

void ShardPlacement::removeDemand(DemandId d) {
  checkThat(live, "removeDemand on a live placement", __FILE__, __LINE__);
  checkIndex(d, numDemands(), "removeDemand");
  checkThat(isPlaced(d), "removeDemand target placed", __FILE__, __LINE__);
  const std::int32_t p = processorOfDemand[static_cast<std::size_t>(d)];
  processorOfDemand[static_cast<std::size_t>(d)] = kUnplaced;

  auto& hosted = demandsOfProcessor[static_cast<std::size_t>(p)];
  const auto pos = std::find(hosted.begin(), hosted.end(), d);
  checkThat(pos != hosted.end(), "removed demand hosted", __FILE__, __LINE__);
  *pos = kUnplaced;
  --liveOfProcessor[static_cast<std::size_t>(p)];
  ++tombstonesOfProcessor[static_cast<std::size_t>(p)];
  weightedLoadOfProcessor[static_cast<std::size_t>(p)] -=
      weightOfDemand[static_cast<std::size_t>(d)];

  const std::int32_t net = homeNetwork[static_cast<std::size_t>(d)];
  if (net >= 0) {
    const auto anchor = networkAnchors.find(net);
    checkThat(anchor != networkAnchors.end(), "home network anchored",
              __FILE__, __LINE__);
    if (--anchor->second.refs == 0) {
      networkAnchors.erase(anchor);
    }
  }

  // Periodic compaction: amortized O(1) — a tombstone is erased at most
  // once, and a compaction halves the list it runs on.
  if (tombstonesOfProcessor[static_cast<std::size_t>(p)] >
      liveOfProcessor[static_cast<std::size_t>(p)]) {
    compactProcessor(p);
  }
}

namespace {

/// A movable unit on one processor during planning: a home network's
/// hosted demands (net >= 0, moves wholesale or splits), or a single
/// network-less demand (net == -1).
struct MoveGroup {
  std::int32_t net = -1;
  std::vector<DemandId> demands;  ///< ascending
};

double varianceOf(const std::vector<std::int64_t>& loads) {
  if (loads.empty()) return 0.0;
  double mean = 0;
  for (const std::int64_t n : loads) mean += static_cast<double>(n);
  mean /= static_cast<double>(loads.size());
  double variance = 0;
  for (const std::int64_t n : loads) {
    const double delta = static_cast<double>(n) - mean;
    variance += delta * delta;
  }
  return variance / static_cast<double>(loads.size());
}

}  // namespace

double ShardPlacement::loadVariance() const {
  return varianceOf(weightedLoadOfProcessor);
}

ShardPlacement::RebalancePlan ShardPlacement::planRebalance(
    double threshold, std::uint64_t seed, std::int32_t maxMoves) const {
  checkThat(live, "planRebalance on a live placement", __FILE__, __LINE__);
  RebalancePlan plan;
  plan.varianceBefore = loadVariance();
  plan.varianceAfter = plan.varianceBefore;
  if (numProcessors <= 1) {
    return plan;
  }

  std::vector<std::int64_t> loads(weightedLoadOfProcessor.begin(),
                                  weightedLoadOfProcessor.end());
  std::int64_t total = 0;
  for (const std::int64_t n : loads) total += n;
  if (total == 0) {
    return plan;
  }
  const auto groupWeight = [this](const MoveGroup& g) {
    std::int64_t w = 0;
    for (const DemandId d : g.demands) {
      w += weightOfDemand[static_cast<std::size_t>(d)];
    }
    return w;
  };
  const double mean =
      static_cast<double>(total) / static_cast<double>(numProcessors);

  // Movable groups per processor — built once from the real hosted
  // lists, then maintained in lock-step with the simulated `loads`, so a
  // processor that received moves earlier in the plan can serve as a hot
  // source later. Group demand lists are ascending; groups sort by
  // network id (network-less singletons last) — deterministic.
  std::vector<std::vector<MoveGroup>> groups(
      static_cast<std::size_t>(numProcessors));
  auto buildGroups = [&](std::int32_t p) {
    auto& out = groups[static_cast<std::size_t>(p)];
    std::vector<DemandId> hosted;
    for (const DemandId d : demandsOfProcessor[static_cast<std::size_t>(p)]) {
      if (d != kUnplaced) hosted.push_back(d);
    }
    std::sort(hosted.begin(), hosted.end());
    for (const DemandId d : hosted) {
      const std::int32_t net = homeNetwork[static_cast<std::size_t>(d)];
      if (net >= 0 && !out.empty() && out.back().net == net) {
        out.back().demands.push_back(d);
        continue;
      }
      // Sort key: networks group by id; a network-less demand is its own
      // group keyed after every network.
      out.push_back(MoveGroup{net, {d}});
    }
    constexpr std::int64_t kNoNetKey =
        std::numeric_limits<std::int64_t>::max();
    // Strict total order (group fronts are distinct demands), so plain
    // sort is deterministic and skips stable_sort's temporary buffer.
    std::sort(out.begin(), out.end(),
              [](const MoveGroup& a, const MoveGroup& b) {
                const std::int64_t ka = a.net >= 0 ? a.net : kNoNetKey;
                const std::int64_t kb = b.net >= 0 ? b.net : kNoNetKey;
                if (ka != kb) return ka < kb;
                return a.demands.front() < b.demands.front();
              });
    // Demands of one network can be interleaved with others in hosted
    // order; merge same-net runs after the sort.
    std::vector<MoveGroup> merged;
    for (MoveGroup& g : out) {
      if (g.net >= 0 && !merged.empty() && merged.back().net == g.net) {
        merged.back().demands.insert(merged.back().demands.end(),
                                     g.demands.begin(), g.demands.end());
        continue;
      }
      merged.push_back(std::move(g));
    }
    out = std::move(merged);
  };
  for (std::int32_t p = 0; p < numProcessors; ++p) {
    buildGroups(p);
  }

  // Receiving side of a simulated move: demands of a home network merge
  // into the processor's existing group of that network (kept ascending);
  // network-less demands stay singleton groups.
  auto receive = [&](std::int32_t p, std::int32_t net,
                     std::span<const DemandId> demands) {
    auto& dest = groups[static_cast<std::size_t>(p)];
    if (net >= 0) {
      for (MoveGroup& g : dest) {
        if (g.net != net) continue;
        g.demands.insert(g.demands.end(), demands.begin(), demands.end());
        std::sort(g.demands.begin(), g.demands.end());
        return;
      }
    }
    for (const DemandId d : demands) {
      dest.push_back(MoveGroup{net, {d}});
      if (net >= 0) break;
    }
    if (net >= 0) {
      dest.back().demands.assign(demands.begin(), demands.end());
    }
  };

  // Anchor positions as the plan's earlier moves left them (lazily
  // seeded from the real anchors) — a group that already migrated once
  // carries its anchor along on the next wholesale move.
  std::unordered_map<std::int32_t, std::int32_t> simAnchor;
  auto anchorProcessor = [&](std::int32_t net) {
    const auto moved = simAnchor.find(net);
    if (moved != simAnchor.end()) return moved->second;
    const auto anchor = networkAnchors.find(net);
    return anchor != networkAnchors.end() ? anchor->second.processor
                                          : kUnplaced;
  };

  for (std::int32_t iter = 0; iter < maxMoves; ++iter) {
    std::int32_t hot = 0;
    std::int32_t cold = 0;
    for (std::int32_t p = 1; p < numProcessors; ++p) {
      if (loads[static_cast<std::size_t>(p)] >
          loads[static_cast<std::size_t>(hot)]) {
        hot = p;
      }
      if (loads[static_cast<std::size_t>(p)] <
          loads[static_cast<std::size_t>(cold)]) {
        cold = p;
      }
    }
    const std::int64_t gap = loads[static_cast<std::size_t>(hot)] -
                             loads[static_cast<std::size_t>(cold)];
    if (static_cast<double>(loads[static_cast<std::size_t>(hot)]) <=
            threshold * mean ||
        gap <= 1) {
      break;
    }
    auto& hotGroups = groups[static_cast<std::size_t>(hot)];

    // Whole-group move first: the heaviest group that still improves the
    // (hot, cold) pair — weight strictly smaller than the gap — keeps
    // its demands co-hosted (locality preserved). Hash tie-break on
    // equal weights keeps the choice deterministic yet seed-varied.
    std::size_t best = hotGroups.size();
    for (std::size_t g = 0; g < hotGroups.size(); ++g) {
      const std::int64_t size = groupWeight(hotGroups[g]);
      if (size == 0 || size >= gap) continue;
      if (best == hotGroups.size()) {
        best = g;
        continue;
      }
      const std::int64_t bestSize = groupWeight(hotGroups[best]);
      if (size > bestSize) {
        best = g;
      } else if (size == bestSize) {
        const std::uint64_t hg = keyedHash(
            seed, static_cast<std::uint64_t>(iter),
            static_cast<std::uint64_t>(hotGroups[g].demands.front()));
        const std::uint64_t hb = keyedHash(
            seed, static_cast<std::uint64_t>(iter),
            static_cast<std::uint64_t>(hotGroups[best].demands.front()));
        if (hg < hb) best = g;
      }
    }

    if (best != hotGroups.size()) {
      MoveGroup& g = hotGroups[best];
      for (const DemandId d : g.demands) {
        plan.moves.push_back(Migration{d, hot, cold});
      }
      const std::int64_t size = groupWeight(g);
      loads[static_cast<std::size_t>(hot)] -= size;
      loads[static_cast<std::size_t>(cold)] += size;
      if (g.net >= 0) {
        if (anchorProcessor(g.net) == hot) {
          plan.anchorMoves.emplace_back(g.net, cold);
          simAnchor[g.net] = cold;
        }
        ++plan.networksMoved;
      }
      const std::vector<DemandId> moved = std::move(g.demands);
      g.demands.clear();
      receive(cold, g.net, moved);
      continue;
    }

    // No whole group fits: one network dominates the hot processor.
    // Split it — peel demands off the back of the heaviest group until
    // about half the gap's weight moved, always keeping its front
    // demand (ascending ids stay put, so repeated splits peel
    // deterministically).
    std::size_t largest = 0;
    for (std::size_t g = 1; g < hotGroups.size(); ++g) {
      if (groupWeight(hotGroups[g]) > groupWeight(hotGroups[largest])) {
        largest = g;
      }
    }
    if (hotGroups.empty() || hotGroups[largest].demands.empty()) {
      break;  // nothing movable (stale accounting cannot happen, but be safe)
    }
    MoveGroup& g = hotGroups[largest];
    const std::int64_t targetWeight = std::max<std::int64_t>(1, gap / 2);
    std::int64_t movedWeight = 0;
    std::vector<DemandId> moved;
    while (g.demands.size() > 1 && movedWeight < targetWeight) {
      const DemandId d = g.demands.back();
      plan.moves.push_back(Migration{d, hot, cold});
      moved.push_back(d);
      movedWeight += weightOfDemand[static_cast<std::size_t>(d)];
      g.demands.pop_back();
    }
    if (moved.empty()) {
      break;  // single-demand group heavier than the gap: unsplittable
    }
    loads[static_cast<std::size_t>(hot)] -= movedWeight;
    loads[static_cast<std::size_t>(cold)] += movedWeight;
    receive(cold, g.net, moved);
  }

  plan.varianceAfter = varianceOf(loads);
  return plan;
}

void ShardPlacement::migrateDemand(DemandId d, std::int32_t to) {
  checkThat(live, "migrateDemand on a live placement", __FILE__, __LINE__);
  checkIndex(d, numDemands(), "migrateDemand");
  checkIndex(to, numProcessors, "migrateDemand target");
  checkThat(isPlaced(d), "migrateDemand source placed", __FILE__, __LINE__);
  const std::int32_t from = processorOfDemand[static_cast<std::size_t>(d)];
  if (from == to) {
    return;  // migrate-to-self: nothing to do
  }

  auto& hosted = demandsOfProcessor[static_cast<std::size_t>(from)];
  const auto pos = std::find(hosted.begin(), hosted.end(), d);
  checkThat(pos != hosted.end(), "migrated demand hosted", __FILE__, __LINE__);
  *pos = kUnplaced;
  --liveOfProcessor[static_cast<std::size_t>(from)];
  ++tombstonesOfProcessor[static_cast<std::size_t>(from)];

  processorOfDemand[static_cast<std::size_t>(d)] = to;
  demandsOfProcessor[static_cast<std::size_t>(to)].push_back(d);
  ++liveOfProcessor[static_cast<std::size_t>(to)];
  weightedLoadOfProcessor[static_cast<std::size_t>(from)] -=
      weightOfDemand[static_cast<std::size_t>(d)];
  weightedLoadOfProcessor[static_cast<std::size_t>(to)] +=
      weightOfDemand[static_cast<std::size_t>(d)];

  // Same amortized compaction rule as removeDemand: a whole-network
  // migration leaves a trail of tombstones on the source.
  if (tombstonesOfProcessor[static_cast<std::size_t>(from)] >
      liveOfProcessor[static_cast<std::size_t>(from)]) {
    compactProcessor(from);
  }
}

void ShardPlacement::retargetAnchor(std::int32_t net, std::int32_t to) {
  checkThat(live, "retargetAnchor on a live placement", __FILE__, __LINE__);
  checkIndex(to, numProcessors, "retargetAnchor target");
  const auto anchor = networkAnchors.find(net);
  checkThat(anchor != networkAnchors.end(), "retargeted network anchored",
            __FILE__, __LINE__);
  anchor->second.processor = to;
}

void ShardPlacement::compactProcessor(std::int32_t p) {
  checkIndex(p, numProcessors, "compactProcessor");
  auto& hosted = demandsOfProcessor[static_cast<std::size_t>(p)];
  if (tombstonesOfProcessor[static_cast<std::size_t>(p)] == 0) return;
  hosted.erase(std::remove(hosted.begin(), hosted.end(), kUnplaced),
               hosted.end());
  tombstonesOfProcessor[static_cast<std::size_t>(p)] = 0;
  ++compactions;
}

}  // namespace treesched
