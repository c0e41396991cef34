#include "dist/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/dynamic_universe.hpp"
#include "core/tolerances.hpp"
#include "core/universe.hpp"
#include "decomp/layering.hpp"
#include "dist/sim_network.hpp"
#include "engine/parallel_runner.hpp"
#include "framework/dual_state.hpp"
#include "framework/lhs_tracker.hpp"
#include "framework/mis.hpp"
#include "framework/schedule.hpp"
#include "obs/ledger.hpp"
#include "obs/observer_adapter.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace treesched {
namespace {

/// Luby status of one instance within the current step.
enum class MisStatus : std::uint8_t { Inactive, Undecided, In, Out };

/// The whole simulation: per-processor contexts plus the ground-truth
/// duals used for the consistency audit. Round loops iterate active sets
/// (undecided instances, processors with non-empty inboxes); the
/// independent per-processor decisions of a round run as parallel shard
/// sections with merges by shard id, so results are bit-identical at any
/// thread count.
///
/// Templated on the universe/layering pair so one engine serves both the
/// static pool (InstanceUniverse + Layering) and the incrementally
/// maintained DynamicUniverse + DynamicLayeringView. Every query the
/// engine makes has identical semantics on the live restriction, so the
/// instantiations are bit-identical on the same warm-start set — the
/// dynamic_universe equivalence gate.
///
/// `persistent` empty: the engine builds one context per processor and
/// owns them (the one-shot run). Otherwise it runs on the caller's
/// contexts, one per processor with a zero dual view, and zeroes the
/// views it touched once the audit has read them (the online epoch).
template <class U, class L>
class ProtocolEngine {
 public:
  ProtocolEngine(const U& universe, const L& layering, Transport& transport,
                 const DistributedOptions& options, const WarmStart& warm,
                 std::span<ProcessorContext> persistent = {})
      : u_(universe),
        lay_(layering),
        opt_(options),
        tracing_(options.tracer, options.metrics, options.observer),
        obs_(options.observer != nullptr ? options.observer : &nullObserver_),
        net_(transport),
        runner_(std::max<std::int32_t>(1, options.threads)),
        plan_(makeStagePlan(SchedulePolicy::Staged, options.rule,
                            options.epsilon,
                            std::max<std::int32_t>(1, layering.maxCriticalSize),
                            options.hmin)),
        numProc_(universe.numDemands()),
        persistentContexts_(!persistent.empty()),
        groundDual_(universe),
        groundLhs_(universe, options.rule) {
    // With a tracer or a registry attached, the adapter becomes the
    // engine's observer (forwarding to the caller's). Without either it
    // is bypassed entirely — the telemetry-off path is the seed path.
    if (tracing_.active()) {
      obs_ = &tracing_;
    }
    checkThat(net_.numProcessors() == numProc_,
              "one processor per demand", __FILE__, __LINE__);

    stepsPerStage_ = opt_.stepsPerStage;
    if (stepsPerStage_ == 0) {
      stepsPerStage_ =
          fixedScheduleStepsPerStage(u_.profitMax(), u_.profitMin());
    }
    scheduledSteps_ = static_cast<std::int64_t>(lay_.numGroups) *
                      plan_.numStages * stepsPerStage_;

    const std::int32_t numInst = u_.numInstances();
    members_.resize(static_cast<std::size_t>(lay_.numGroups));
    if (warm.activeInstances.empty()) {
      for (InstanceId i = 0; i < numInst; ++i) {
        members_[static_cast<std::size_t>(
                     lay_.group[static_cast<std::size_t>(i)])]
            .push_back(i);
        restricted_.push_back(i);
      }
    } else {
      // The restriction must be ascending so the group member lists come
      // out in the order a full enumeration would produce — the keystone
      // of bit-identity with runTwoPhaseRestricted.
      for (std::size_t idx = 0; idx < warm.activeInstances.size(); ++idx) {
        const InstanceId i = warm.activeInstances[idx];
        checkIndex(i, numInst, "warm-start active instance");
        checkThat(idx == 0 || warm.activeInstances[idx - 1] < i,
                  "warm-start active set sorted ascending", __FILE__,
                  __LINE__);
        members_[static_cast<std::size_t>(
                     lay_.group[static_cast<std::size_t>(i)])]
            .push_back(i);
        restricted_.push_back(i);
      }
    }

    if (warm.priorLhs.empty()) {
      lhsLocal_.assign(static_cast<std::size_t>(numInst), 0.0);
    } else {
      checkThat(warm.priorLhs.size() == static_cast<std::size_t>(numInst),
                "warm-start priorLhs covers every instance", __FILE__,
                __LINE__);
      lhsLocal_ = warm.priorLhs;
      groundLhs_.preload(warm.priorLhs);
    }
    misStatus_.assign(static_cast<std::size_t>(numInst), MisStatus::Inactive);
    priority_.assign(static_cast<std::size_t>(numInst), 0);

    // Crash-stop fault set.
    crashed_.assign(static_cast<std::size_t>(numProc_), std::uint8_t{0});
    for (const DemandId d : opt_.crashProcessors) {
      checkIndex(d, numProc_, "crashProcessors entry");
      if (crashed_[static_cast<std::size_t>(d)] == 0) {
        crashed_[static_cast<std::size_t>(d)] = 1;
        ++crashedCount_;
      }
    }

    if (persistentContexts_) {
      checkThat(persistent.size() == static_cast<std::size_t>(numProc_),
                "one persistent context per processor", __FILE__, __LINE__);
      contexts_ = persistent;
    } else {
      // Per-processor contexts: independent, so built in parallel.
      // Context cost is proportional to the demand's instance count, so
      // the plan is weighted — a hot demand owning most of the pool's
      // instances gets its own shard instead of serializing a uniform one.
      ownedContexts_.resize(static_cast<std::size_t>(numProc_));
      contexts_ = ownedContexts_;
      weightScratch_.resize(static_cast<std::size_t>(numProc_));
      for (DemandId p = 0; p < numProc_; ++p) {
        weightScratch_[static_cast<std::size_t>(p)] =
            static_cast<std::int64_t>(u_.instancesOfDemand(p).size());
      }
      runner_.planWeighted(weightScratch_, weightedPlan_);
      runner_.forShards(weightedPlan_, [&](std::int32_t shard) {
        const std::int64_t end = weightedPlan_.end(shard);
        for (std::int64_t p = weightedPlan_.begin(shard); p < end; ++p) {
          contexts_[static_cast<std::size_t>(p)].init(
              u_, static_cast<DemandId>(p));
        }
      });
    }

    ledgerOn_ = opt_.ledger != nullptr && opt_.ledger->enabled();

    // Attach LAST: everything above can throw, and the destructor (which
    // detaches) only runs for fully constructed engines — attaching any
    // earlier could leave the caller-owned transport holding dangling
    // runner/telemetry pointers.
    net_.attachTelemetry(opt_.tracer, opt_.metrics);
    runner_.attachTelemetry(opt_.tracer, opt_.metrics);
    net_.attachRunner(&runner_);
  }

  ~ProtocolEngine() {
    net_.attachRunner(nullptr);
    net_.attachTelemetry(nullptr, nullptr);
  }
  // contexts_ may view ownedContexts_, so a copy would view the original.
  ProtocolEngine(const ProtocolEngine&) = delete;
  ProtocolEngine& operator=(const ProtocolEngine&) = delete;

  /// The full one-shot run: both phases.
  DistributedResult run() {
    runPhase1();
    measureSlackness();
    auditLocalViews();
    runPhase2();

    DistributedResult result;
    std::sort(acceptOrder_.begin(), acceptOrder_.end());
    result.solution.instances = std::move(acceptOrder_);
    result.profit = profit_;
    result.dualObjective = groundDual_.objective();
    result.lambdaTarget = plan_.lambdaTarget;
    result.lambdaMeasured = lambdaMeasured_;
    result.dualUpperBound =
        lambdaMeasured_ > 0 ? result.dualObjective / lambdaMeasured_
                            : std::numeric_limits<double>::infinity();
    result.network = net_.stats();
    result.scheduledSteps = scheduledSteps_;
    result.activeSteps = activeSteps_;
    result.raises = raises_;
    result.crashedProcessors = crashedCount_;
    result.localViewsConsistent = localViewsConsistent_;
    result.engineClaims = runner_.claims();
    result.engineSteals = runner_.steals();
    requireFeasible(u_, result.solution);
    return result;
  }

  /// Phase 1 alone (the online epoch): the raises and the audit.
  Phase1Result runPhase1Only() {
    runPhase1();
    auditLocalViews();
    zeroTouchedViews();
    Phase1Result result;
    result.raiseLog = std::move(raiseLog_);
    result.localViewsConsistent = localViewsConsistent_;
    result.engineClaims = runner_.claims();
    result.engineSteals = runner_.steals();
    return result;
  }

 private:
  DemandId owner(InstanceId i) const { return u_.instance(i).demand; }

  /// Alive during phase-1 tuple `tuple` (crashes hit at tuple start).
  bool aliveAt(DemandId p, std::int64_t tuple) const {
    return crashed_[static_cast<std::size_t>(p)] == 0 ||
           tuple < opt_.crashAtTuple;
  }

  /// Alive during phase 2: every listed processor is dead by then.
  bool aliveP2(DemandId p) const {
    return crashed_[static_cast<std::size_t>(p)] == 0;
  }

  /// Parallel order-preserving filter: shard outputs are concatenated by
  /// shard id, so `out` is exactly the serial filter of `in`.
  template <typename Pred>
  void filterInstances(const std::vector<InstanceId>& in,
                       std::vector<InstanceId>& out, Pred pred) {
    out.clear();
    const ParallelRunner::ShardPlan shardPlan =
        runner_.plan(static_cast<std::int64_t>(in.size()));
    if (shardPlan.numShards <= 1) {
      for (const InstanceId i : in) {
        if (pred(i)) out.push_back(i);
      }
      return;
    }
    if (shardLists_.size() < static_cast<std::size_t>(shardPlan.numShards)) {
      // Grow-only: shrinking would free per-shard buffer capacity that
      // the next (larger) stage reset would have to re-allocate.
      shardLists_.resize(static_cast<std::size_t>(shardPlan.numShards));
    }
    runner_.forShards(shardPlan, [&](std::int32_t shard) {
      auto& list = shardLists_[static_cast<std::size_t>(shard)];
      list.clear();
      const std::int64_t end = shardPlan.end(shard);
      for (std::int64_t idx = shardPlan.begin(shard); idx < end; ++idx) {
        const InstanceId i = in[static_cast<std::size_t>(idx)];
        if (pred(i)) list.push_back(i);
      }
    });
    for (std::int32_t shard = 0; shard < shardPlan.numShards; ++shard) {
      const auto& list = shardLists_[static_cast<std::size_t>(shard)];
      out.insert(out.end(), list.begin(), list.end());
    }
  }

  /// Runs fn(item) over a list in parallel shards. fn must write only
  /// item-owned state.
  template <typename T, typename Fn>
  void forEachParallel(const std::vector<T>& items, Fn fn) {
    const ParallelRunner::ShardPlan shardPlan =
        runner_.plan(static_cast<std::int64_t>(items.size()));
    runner_.forShards(shardPlan, [&](std::int32_t shard) {
      const std::int64_t end = shardPlan.end(shard);
      for (std::int64_t idx = shardPlan.begin(shard); idx < end; ++idx) {
        fn(items[static_cast<std::size_t>(idx)]);
      }
    });
  }

  /// forEachParallel with a cost-proportional shard plan: weightFn(item)
  /// estimates fn(item)'s cost, so one hot item (a processor holding
  /// most of the round's traffic) no longer serializes its whole shard's
  /// neighbors behind it. The partition is a pure performance knob —
  /// results are identical to forEachParallel by the shard-merge
  /// discipline. Scratch buffers are member-owned and grow-only, keeping
  /// the round hot loop allocation-free in steady state.
  template <typename T, typename WeightFn, typename Fn>
  void forEachParallelWeighted(const std::vector<T>& items, WeightFn weightFn,
                               Fn fn) {
    weightScratch_.clear();
    weightScratch_.reserve(items.size());
    for (const T& item : items) {
      weightScratch_.push_back(weightFn(item));
    }
    runner_.planWeighted(weightScratch_, weightedPlan_);
    runner_.forShards(weightedPlan_, [&](std::int32_t shard) {
      const std::int64_t end = weightedPlan_.end(shard);
      for (std::int64_t idx = weightedPlan_.begin(shard); idx < end; ++idx) {
        fn(items[static_cast<std::size_t>(idx)]);
      }
    });
  }

  void runPhase1() {
    std::int64_t tuple = 0;
    for (std::int32_t epoch = 0; epoch < lay_.numGroups; ++epoch) {
      obs_->onEpochBegin(epoch,
                         static_cast<std::int32_t>(
                             members_[static_cast<std::size_t>(epoch)].size()));
      for (std::int32_t stage = 1; stage <= plan_.numStages; ++stage) {
        const double target = plan_.stageTarget(stage);
        obs_->onStageBegin(epoch, stage, target);
        // The stage's active set: lhs only grows within a stage, so an
        // instance observed satisfied for this target never re-enters —
        // steps scan survivors, not the whole group.
        stageActive_ = members_[static_cast<std::size_t>(epoch)];
        for (std::int32_t step = 1; step <= stepsPerStage_; ++step) {
          runStep(epoch, stage, step, tuple, target);
          ++tuple;
        }
      }
    }
    obs_->onPhase1Complete(activeSteps_, raises_);
  }

  /// Reports crash-stop faults taking effect: fires onCrash once per
  /// crashed processor (ascending) the first time the schedule reaches a
  /// tuple at which they are dead. Phase 2 announces with
  /// tuple == scheduledSteps_ (the first pop) and `phase2` set, because
  /// every listed processor is dead there (aliveP2) even when
  /// crashAtTuple lies beyond the schedule.
  void announceCrashes(std::int64_t tuple, bool phase2 = false) {
    if (crashAnnounced_ || crashedCount_ == 0 ||
        (!phase2 && tuple < opt_.crashAtTuple)) {
      return;
    }
    crashAnnounced_ = true;
    for (DemandId p = 0; p < numProc_; ++p) {
      if (crashed_[static_cast<std::size_t>(p)] != 0) {
        obs_->onCrash(p, tuple);
        if (ledgerOn_) {
          LedgerEvent ev;
          ev.demand = p;
          ev.kind = LedgerEventKind::Crash;
          ev.tuple = tuple;
          opt_.ledger->record(ev);
        }
      }
    }
  }

  void runStep(std::int32_t epoch, std::int32_t stage, std::int32_t step,
               std::int64_t tuple, double target) {
    announceCrashes(tuple);
    const std::int32_t budget = opt_.misRoundBudget;

    // Each alive processor checks its surviving instances of the
    // scheduled group against the stage target (purely local knowledge).
    // Satisfied and crashed instances leave the active set for good.
    filterInstances(stageActive_, unsatisfied_, [&](InstanceId i) {
      if (!aliveAt(owner(i), tuple)) return false;
      const double p = u_.instance(i).profit;
      return lhsLocal_[static_cast<std::size_t>(i)] <
             target * p - kSatisfyTolerance * p;
    });
    stageActive_.swap(unsatisfied_);
    const std::vector<InstanceId>& unsatisfied = stageActive_;

    if (unsatisfied.empty()) {
      // The fixed schedule still spends the step's rounds; nobody
      // transmits. Run-to-completion MIS (budget <= 0) costs only the
      // raise round.
      net_.endSilentRounds(budget > 0 ? 2 * budget + 1 : 1);
      return;
    }

    obs_->onStepStart(epoch, stage, step,
                      static_cast<std::int32_t>(unsatisfied.size()));
    ++activeSteps_;
    const std::uint64_t stepSeed =
        keyedHash(opt_.seed, static_cast<std::uint64_t>(epoch),
                  static_cast<std::uint64_t>(stage),
                  static_cast<std::uint64_t>(step));

    lubyOverMessages(unsatisfied, stepSeed, budget);
    obs_->onMisComplete(tuple, lastLubyRounds_,
                        static_cast<std::int32_t>(misMembers_.size()));
    raiseRound(tuple, misMembers_);

    // Reset per-step Luby state.
    for (const InstanceId i : unsatisfied) {
      misStatus_[static_cast<std::size_t>(i)] = MisStatus::Inactive;
    }
  }

  /// Runs the step's MIS as messages: per Luby round, one communication
  /// round announcing undecided instances and one announcing joiners.
  /// Leaves the MIS in misMembers_, sorted ascending; charges exactly
  /// 2*budget rounds when a budget is set (silent once the MIS completes
  /// early). Round-B decisions and join-propagation are per-instance
  /// independent, so both run as parallel shard sections.
  void lubyOverMessages(const std::vector<InstanceId>& unsatisfied,
                        std::uint64_t stepSeed, std::int32_t budget) {
    for (const InstanceId i : unsatisfied) {
      misStatus_[static_cast<std::size_t>(i)] = MisStatus::Undecided;
    }
    undecided_ = unsatisfied;
    misMembers_.clear();
    lastLubyRounds_ = 0;

    while (!undecided_.empty() &&
           (budget <= 0 || lastLubyRounds_ < budget)) {
      ++lastLubyRounds_;
      const std::int32_t round = lastLubyRounds_;

      // Round A: every undecided instance announces itself.
      for (const InstanceId i : undecided_) {
        net_.broadcast({MessageKind::MisActive, owner(i), i, 0.0});
      }
      net_.endRound();

      // Priorities are seed-keyed hashes, so the receiver can evaluate
      // the sender's priority itself. Every round-A sender is undecided,
      // so caching priorities over the undecided set covers every
      // competitor the decisions below look at.
      forEachParallel(undecided_, [&](InstanceId v) {
        priority_[static_cast<std::size_t>(v)] =
            misPriority(stepSeed, round, v);
      });

      // Round B: each owner decides from its inbox whether its instance
      // beats every undecided conflicting competitor, then announces
      // joins.
      filterInstances(undecided_, joiners_, [&](InstanceId v) {
        const DemandId p = owner(v);
        const std::uint64_t pv = priority_[static_cast<std::size_t>(v)];
        for (const InstanceId w : u_.instancesOfDemand(p)) {
          if (w == v ||
              misStatus_[static_cast<std::size_t>(w)] != MisStatus::Undecided) {
            continue;
          }
          const std::uint64_t pw = priority_[static_cast<std::size_t>(w)];
          if (pw > pv || (pw == pv && w > v)) {
            return false;
          }
        }
        // Inbox messages come from other demands, so for them
        // conflicting is overlapping; the cheap priority test goes first.
        for (const Message& m : net_.inbox(p)) {
          if (m.kind != MessageKind::MisActive) continue;
          const std::uint64_t pw =
              priority_[static_cast<std::size_t>(m.instance)];
          if ((pw > pv || (pw == pv && m.instance > v)) &&
              u_.overlapping(v, m.instance)) {
            return false;
          }
        }
        return true;
      });
      for (const InstanceId v : joiners_) {
        net_.broadcast({MessageKind::MisJoin, owner(v), v, 0.0});
      }
      net_.endRound();

      // Apply joins: winners in; conflicting undecided out, discovered
      // locally for same-processor instances (joiners have distinct
      // owners, so these writes are disjoint) and via MisJoin messages
      // for neighbours.
      for (const InstanceId v : joiners_) {
        misStatus_[static_cast<std::size_t>(v)] = MisStatus::In;
        misMembers_.push_back(v);
        for (const InstanceId w : u_.instancesOfDemand(owner(v))) {
          if (misStatus_[static_cast<std::size_t>(w)] ==
              MisStatus::Undecided) {
            misStatus_[static_cast<std::size_t>(w)] = MisStatus::Out;
          }
        }
      }
      forEachParallel(undecided_, [&](InstanceId v) {
        if (misStatus_[static_cast<std::size_t>(v)] != MisStatus::Undecided) {
          return;
        }
        for (const Message& m : net_.inbox(owner(v))) {
          if (m.kind != MessageKind::MisJoin) continue;
          if (u_.overlapping(v, m.instance)) {
            misStatus_[static_cast<std::size_t>(v)] = MisStatus::Out;
            return;
          }
        }
      });
      std::erase_if(undecided_, [&](InstanceId v) {
        return misStatus_[static_cast<std::size_t>(v)] != MisStatus::Undecided;
      });
    }

    if (budget > 0) {
      net_.endSilentRounds(
          2 * static_cast<std::int64_t>(budget - lastLubyRounds_));
    }
    std::sort(misMembers_.begin(), misMembers_.end());
  }

  /// The step's raise round: every MIS member's owner tightens its dual
  /// constraint and broadcasts the increments; every processor that
  /// received (or sent) a raise then applies them in canonical (sender)
  /// order so each local accumulator sees the exact sequence the
  /// centralized engine produces. Application is per-processor
  /// independent and runs parallel over the active processors only.
  void raiseRound(std::int64_t tuple,
                  const std::vector<InstanceId>& misMembers) {
    stepRaises_.clear();
    for (const InstanceId i : misMembers) {
      const DemandId p = owner(i);
      const InstanceRecord& rec = u_.instance(i);
      const double slack =
          rec.profit - lhsLocal_[static_cast<std::size_t>(i)];
      checkThat(slack > 0, "raised instance had positive slack", __FILE__,
                __LINE__);
      const auto critical = lay_.critical(i);
      const RaiseAmounts amounts =
          computeRaise(opt_.rule, u_, i, critical, slack);
      net_.broadcast(
          {MessageKind::DualRaise, p, i, amounts.betaIncrement});
      stepRaises_.push_back(
          {p, i, amounts.alphaIncrement, amounts.betaIncrement});
      raiseLog_.push_back(
          {tuple, i, amounts.alphaIncrement, amounts.betaIncrement});
      obs_->onRaise(tuple, i, amounts.alphaIncrement);
      if (ledgerOn_) {
        LedgerEvent ev;
        ev.demand = p;
        ev.kind = LedgerEventKind::DualRaise;
        ev.instance = i;
        ev.tuple = tuple;
        ev.alphaIncrement = amounts.alphaIncrement;
        ev.betaIncrement = amounts.betaIncrement;
        opt_.ledger->record(ev);
      }
      ++raises_;
      // Ground truth, applied in the centralized engine's order.
      applyRaise(groundDual_, u_, i, critical, amounts);
      groundLhs_.onRaise(i, critical, amounts);
    }
    net_.endRound();

    // Active processors: non-empty inbox or an own raise. Everyone else
    // would apply nothing — the serial engine's full-processor scan is
    // equivalent but O(n) per round.
    activeProcs_.clear();
    net_.appendActiveInboxes(activeProcs_);
    for (const PendingRaise& r : stepRaises_) {
      activeProcs_.push_back(r.from);
    }
    std::sort(activeProcs_.begin(), activeProcs_.end());
    activeProcs_.erase(std::unique(activeProcs_.begin(), activeProcs_.end()),
                       activeProcs_.end());
    if (persistentContexts_) {
      touchedProcs_.insert(touchedProcs_.end(), activeProcs_.begin(),
                           activeProcs_.end());
    }
    // Apply cost per processor is dominated by its inbox length (this
    // round's raise traffic — i.e. the step participants just observed),
    // so that feeds the weighted plan: a hotspot processor receiving
    // most of the raises becomes its own shard.
    forEachParallelWeighted(
        activeProcs_,
        [&](std::int32_t p) {
          return static_cast<std::int64_t>(net_.inbox(p).size());
        },
        [&](std::int32_t p) {
          if (!aliveAt(p, tuple)) return;
          applyRaisesLocally(p);
        });
  }

  /// Merges p's own raise with the received DualRaise messages in sender
  /// order (== ascending instance order, since instances are numbered
  /// demand-major) and applies them to p's context.
  void applyRaisesLocally(DemandId p) {
    // stepRaises_ is sorted by sender (misMembers_ ascending, one
    // instance per demand), so the own raise is a binary search away.
    const PendingRaise* own = nullptr;
    const auto it = std::lower_bound(
        stepRaises_.begin(), stepRaises_.end(), p,
        [](const PendingRaise& r, DemandId d) { return r.from < d; });
    if (it != stepRaises_.end() && it->from == p) {
      own = &*it;
    }
    ProcessorContext& context = contexts_[static_cast<std::size_t>(p)];
    bool ownApplied = own == nullptr;
    for (const Message& m : net_.inbox(p)) {
      if (m.kind != MessageKind::DualRaise) continue;
      if (!ownApplied && own->from < m.from) {
        context.applyRaise(u_, lay_, opt_.rule, *own, lhsLocal_);
        ownApplied = true;
      }
      context.applyRaise(u_, lay_, opt_.rule,
                         {m.from, m.instance, 0.0, m.value}, lhsLocal_);
    }
    if (!ownApplied) {
      context.applyRaise(u_, lay_, opt_.rule, *own, lhsLocal_);
    }
  }

  void measureSlackness() {
    double lambda = std::numeric_limits<double>::infinity();
    bool any = false;
    for (const InstanceId i : restricted_) {
      if (!aliveP2(owner(i))) continue;
      any = true;
      lambda = std::min(lambda,
                        groundLhs_.lhs(i) / u_.instance(i).profit);
    }
    lambdaMeasured_ = any ? lambda : 1.0;
  }

  /// Exact-equality audit of every surviving processor's local dual view
  /// against the ground truth of the raises that actually happened.
  void auditLocalViews() {
    localViewsConsistent_ = true;
    for (DemandId p = 0; p < numProc_; ++p) {
      if (!aliveP2(p)) continue;
      const ProcessorContext& context =
          contexts_[static_cast<std::size_t>(p)];
      if (context.alpha != groundDual_.alpha(p)) {
        localViewsConsistent_ = false;
      }
      for (std::size_t idx = 0; idx < context.tracked.size(); ++idx) {
        if (context.beta[idx] != groundDual_.beta(context.tracked[idx])) {
          localViewsConsistent_ = false;
        }
      }
      for (const InstanceId k : u_.instancesOfDemand(p)) {
        if (lhsLocal_[static_cast<std::size_t>(k)] != groundLhs_.lhs(k)) {
          localViewsConsistent_ = false;
        }
      }
    }
  }

  /// Returns the persistent contexts to a zero dual view: only
  /// processors that applied a raise can hold anything else.
  void zeroTouchedViews() {
    std::sort(touchedProcs_.begin(), touchedProcs_.end());
    touchedProcs_.erase(
        std::unique(touchedProcs_.begin(), touchedProcs_.end()),
        touchedProcs_.end());
    for (const DemandId p : touchedProcs_) {
      contexts_[static_cast<std::size_t>(p)].zeroDualView();
    }
  }

  void runPhase2() {
    announceCrashes(scheduledSteps_, /*phase2=*/true);
    std::int64_t accepts = 0;
    std::int64_t rejects = 0;
    std::vector<std::uint8_t> demandUsed(static_cast<std::size_t>(numProc_),
                                         0);
    // Decision provenance: the certificate book exists only for an
    // ENABLED ledger, so a null or disabled one keeps the pop on the
    // allocation-free path (tests/provenance_test.cpp). Verdicts are
    // recorded in pop order; slackness is already measured, so every
    // rejection is certified as it happens.
    CertificateBook book;
    if (ledgerOn_) book.reset(u_);
    const auto reject = [&](std::int64_t t, InstanceId i,
                            RejectReason reason) {
      obs_->onReject(t, i, reason);
      ++rejects;
      if (!ledgerOn_) return;
      book.reject(u_, i, t, reason);
      book.flush(
          u_, [&](InstanceId k) { return groundLhs_.lhs(k); },
          lambdaMeasured_, *opt_.ledger);
    };

    // The raise log is the phase-1 stack: one tuple's raises are
    // contiguous, members ascending. A tuple nobody pushed at carries no
    // Accept, and every processor heard its neighbours' pushes as phase-1
    // DualRaise broadcasts — the argument phase 1 uses for its silent
    // steps — so each run of such tuples is charged as one silent batch.
    std::size_t top = raiseLog_.size();
    std::int64_t unpopped = scheduledSteps_;  // tuples [0, unpopped) remain
    while (top > 0) {
      const std::int64_t t = raiseLog_[top - 1].tuple;
      net_.endSilentRounds(unpopped - 1 - t);
      std::size_t begin = top;
      while (begin > 0 && raiseLog_[begin - 1].tuple == t) --begin;
      for (std::size_t k = begin; k < top; ++k) {
        const InstanceId i = raiseLog_[k].instance;
        const DemandId p = owner(i);
        if (!aliveP2(p)) {
          reject(t, i, RejectReason::OwnerCrashed);
          continue;
        }
        if (demandUsed[static_cast<std::size_t>(p)] != 0) {
          reject(t, i, RejectReason::DemandSatisfied);
          continue;
        }
        ProcessorContext& context = contexts_[static_cast<std::size_t>(p)];
        if (!context.capacityOk(u_, i)) {
          reject(t, i, RejectReason::CapacityExceeded);
          continue;
        }
        demandUsed[static_cast<std::size_t>(p)] = 1;
        context.addLoad(u_, i);
        net_.broadcast({MessageKind::Accept, p, i, 0.0});
        obs_->onAccept(t, i);
        if (ledgerOn_) {
          book.admit(u_, i);
          LedgerEvent ev;
          ev.demand = p;
          ev.kind = LedgerEventKind::Admitted;
          ev.instance = i;
          ev.tuple = t;
          opt_.ledger->record(ev);
        }
        ++accepts;
        acceptOrder_.push_back(i);
        profit_ += u_.instance(i).profit;
      }
      top = begin;
      unpopped = t;
      net_.endRound();
      // Only processors that received an Accept have loads to update.
      activeProcs_.clear();
      net_.appendActiveInboxes(activeProcs_);
      forEachParallelWeighted(
          activeProcs_,
          [&](std::int32_t p) {
            return static_cast<std::int64_t>(net_.inbox(p).size());
          },
          [&](std::int32_t p) {
            if (!aliveP2(p)) return;
            ProcessorContext& context =
                contexts_[static_cast<std::size_t>(p)];
            for (const Message& m : net_.inbox(p)) {
              if (m.kind != MessageKind::Accept) continue;
              context.addLoad(u_, m.instance);
            }
          });
    }
    net_.endSilentRounds(unpopped);
    obs_->onPhase2Complete(accepts, rejects);
  }

  const U& u_;
  const L& lay_;
  DistributedOptions opt_;
  TracingObserver tracing_;  ///< telemetry adapter (inactive when unused)
  NullObserver nullObserver_;
  ProtocolObserver* obs_;
  Transport& net_;
  ParallelRunner runner_;
  StagePlan plan_;
  std::int32_t numProc_ = 0;
  std::int32_t stepsPerStage_ = 0;
  std::int64_t scheduledSteps_ = 0;
  std::vector<std::vector<InstanceId>> members_;
  /// The instances this run may raise (ascending) — everything on a full
  /// run, the warm-start restriction otherwise. Slackness is measured
  /// over exactly this set.
  std::vector<InstanceId> restricted_;

  // Per-processor contexts (the caller's persistent ones, or built and
  // owned here) plus the owner-indexed lhs views (entry i is written only
  // by owner(i)'s context).
  bool persistentContexts_ = false;
  std::vector<ProcessorContext> ownedContexts_;
  std::span<ProcessorContext> contexts_;
  /// Processors that applied a raise (persistent contexts only).
  std::vector<DemandId> touchedProcs_;
  std::vector<double> lhsLocal_;

  bool ledgerOn_ = false;  ///< decision provenance: enabled ledger set

  // Ground truth for the audit and the reported dual objective.
  DualState groundDual_;
  BasicLhsTracker<U> groundLhs_;

  // Faults (uint8, not vector<bool>: read concurrently from shards).
  std::vector<std::uint8_t> crashed_;
  std::int32_t crashedCount_ = 0;
  bool crashAnnounced_ = false;  ///< onCrash fired (once per run)

  // Per-step scratch, reused across steps to keep the hot loop
  // allocation-free after warmup.
  std::vector<MisStatus> misStatus_;
  std::vector<std::uint64_t> priority_;  ///< per instance, current round
  std::vector<InstanceId> stageActive_;
  std::vector<InstanceId> unsatisfied_;
  std::vector<InstanceId> undecided_;
  std::vector<InstanceId> joiners_;
  std::vector<InstanceId> misMembers_;
  std::vector<std::vector<InstanceId>> shardLists_;
  std::vector<std::int32_t> activeProcs_;
  /// Scratch for the weighted shard plans (grow-only; reused per round).
  std::vector<std::int64_t> weightScratch_;
  ParallelRunner::ShardPlan weightedPlan_;
  std::vector<PendingRaise> stepRaises_;
  std::int32_t lastLubyRounds_ = 0;

  // Phase-1 stack: every raise in execution order (DualRaiseRecord).
  std::vector<DualRaiseRecord> raiseLog_;

  // Run accounting.
  std::int64_t activeSteps_ = 0;
  std::int64_t raises_ = 0;
  double lambdaMeasured_ = 0;
  bool localViewsConsistent_ = false;
  std::vector<InstanceId> acceptOrder_;
  double profit_ = 0;
};

}  // namespace

DistributedResult runDistributedOverTransport(
    const InstanceUniverse& universe, const Layering& layering,
    Transport& transport, const DistributedOptions& options) {
  return runDistributedWarmStart(universe, layering, transport, options,
                                 WarmStart{});
}

DistributedResult runDistributedWarmStart(const InstanceUniverse& universe,
                                          const Layering& layering,
                                          Transport& transport,
                                          const DistributedOptions& options,
                                          const WarmStart& warm) {
  ProtocolEngine<InstanceUniverse, Layering> engine(universe, layering,
                                                    transport, options, warm);
  return engine.run();
}

Phase1Result runDistributedPhase1(const DynamicUniverse& universe,
                                  Transport& transport,
                                  const DistributedOptions& options,
                                  const WarmStart& warm,
                                  std::span<ProcessorContext> contexts) {
  checkThat(!warm.activeInstances.empty(),
            "dynamic warm start names its live active set", __FILE__,
            __LINE__);
  checkThat(contexts.size() ==
                static_cast<std::size_t>(universe.numDemands()),
            "one persistent context per pool demand", __FILE__, __LINE__);
  const DynamicLayeringView layering = universe.layeringView();
  ProtocolEngine<DynamicUniverse, DynamicLayeringView> engine(
      universe, layering, transport, options, warm, contexts);
  return engine.runPhase1Only();
}

PreparedRun prepareUnitTreeRun(const TreeProblem& problem) {
  InstanceUniverse universe = InstanceUniverse::fromTreeProblem(problem);
  Layering layering = buildTreeLayering(problem, universe);
  return {std::move(universe), std::move(layering),
          communicationGraph(problem.access, problem.numNetworks())};
}

PreparedRun prepareUnitLineRun(const LineProblem& problem) {
  InstanceUniverse universe = InstanceUniverse::fromLineProblem(problem);
  Layering layering = buildLineLayering(problem, universe);
  return {std::move(universe), std::move(layering),
          communicationGraph(problem.access, problem.numResources)};
}

DistributedResult runDistributedUnitTree(const TreeProblem& problem,
                                         const DistributedOptions& options) {
  PreparedRun run = prepareUnitTreeRun(problem);
  SimNetwork bus(std::move(run.adjacency));
  return runDistributedOverTransport(run.universe, run.layering, bus,
                                     options);
}

DistributedResult runDistributedUnitLine(const LineProblem& problem,
                                         const DistributedOptions& options) {
  PreparedRun run = prepareUnitLineRun(problem);
  SimNetwork bus(std::move(run.adjacency));
  return runDistributedOverTransport(run.universe, run.layering, bus,
                                     options);
}

}  // namespace treesched
