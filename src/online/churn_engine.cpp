#include "online/churn_engine.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace treesched {

std::vector<EpochBatch> batchTrace(const ChurnTrace& trace,
                                   double epochLength) {
  checkThat(epochLength > 0, "epoch length positive", __FILE__, __LINE__);
  std::vector<EpochBatch> batches;
  if (trace.events.empty()) return batches;
  const auto numEpochs = static_cast<std::size_t>(
      std::floor(trace.lastEventTime() / epochLength)) + 1;
  batches.resize(numEpochs);

  // Net each window: a demand both arriving and departing inside one
  // window is never admitted (its lifetime fell between two admission
  // boundaries); trace semantics guarantee at most one arrival and one
  // departure per demand, with the departure strictly later.
  std::size_t begin = 0;
  for (std::size_t k = 0; k < numEpochs; ++k) {
    const double windowEnd = epochLength * static_cast<double>(k + 1);
    std::size_t end = begin;
    while (end < trace.events.size() &&
           (trace.events[end].time < windowEnd || k + 1 == numEpochs)) {
      ++end;
    }
    EpochBatch& batch = batches[k];
    for (std::size_t e = begin; e < end; ++e) {
      const ChurnEvent& event = trace.events[e];
      auto& list = event.arrival ? batch.arrivals : batch.departures;
      list.push_back(event.demand);
    }
    std::sort(batch.arrivals.begin(), batch.arrivals.end());
    std::sort(batch.departures.begin(), batch.departures.end());
    // Drop the intra-window pairs from both lists.
    std::vector<DemandId> arriveOnly;
    std::vector<DemandId> departOnly;
    std::set_difference(batch.arrivals.begin(), batch.arrivals.end(),
                        batch.departures.begin(), batch.departures.end(),
                        std::back_inserter(arriveOnly));
    std::set_difference(batch.departures.begin(), batch.departures.end(),
                        batch.arrivals.begin(), batch.arrivals.end(),
                        std::back_inserter(departOnly));
    batch.arrivals = std::move(arriveOnly);
    batch.departures = std::move(departOnly);
    begin = end;
  }
  return batches;
}

ChurnRunResult runChurnOverTrace(DynamicUniverse& universe,
                                 const ChurnTrace& trace,
                                 const ChurnEngineConfig& config) {
  const std::unique_ptr<PlaneTransport> transport = makeLiveTransport(
      universe.numDemands(), universe.access(), config.transport);
  return runChurnOverTransport(universe, trace, config, *transport);
}

ChurnRunResult runChurnOverTransport(DynamicUniverse& universe,
                                     const ChurnTrace& trace,
                                     const ChurnEngineConfig& config,
                                     Transport& transport) {
  IncrementalSolver solver(universe, config.solver, transport);
  ChurnRunResult result;
  const std::vector<EpochBatch> batches =
      batchTrace(trace, config.epochLength);
  result.epochs.reserve(batches.size());

  double fractionSum = 0;
  std::int64_t churnEpochs = 0;
  for (const EpochBatch& batch : batches) {
    EpochOutcome outcome =
        solver.applyEpoch(batch.arrivals, batch.departures);
    if (outcome.arrivals + outcome.departures > 0) {
      fractionSum += outcome.resolveFraction;
      ++churnEpochs;
    }
    if (outcome.fullResolve) ++result.fullResolves;
    result.totalRounds += outcome.rounds;
    result.totalMessages += outcome.messages;
    result.totalDemandsMigrated += outcome.demandsMigrated;
    result.totalEngineClaims += outcome.engineClaims;
    result.totalEngineSteals += outcome.engineSteals;
    result.peakVarianceBefore =
        std::max(result.peakVarianceBefore, outcome.loadVarianceBefore);
    result.peakVarianceAfter =
        std::max(result.peakVarianceAfter, outcome.loadVarianceAfter);
    result.epochs.push_back(std::move(outcome));
  }
  result.finalSolution = solver.solution();
  result.finalProfit = solver.profit();
  result.finalActiveInstances = solver.activeInstanceIds();
  result.meanResolveFraction =
      churnEpochs > 0 ? fractionSum / static_cast<double>(churnEpochs) : 0.0;
  result.sla = solver.admissionSla();
  const UniverseStats& ustats = universe.stats();
  result.universeBuildMs = ustats.buildMs;
  result.meanExtendUsPerArrival =
      ustats.arrivals > 0 ? static_cast<double>(ustats.extendUs) /
                                static_cast<double>(ustats.arrivals)
                          : 0.0;
  result.network = solver.transport().stats();
  return result;
}

}  // namespace treesched
