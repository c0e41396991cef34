#include "dist/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/dynamic_universe.hpp"
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
/// `active` names the instances the run may raise (ascending; empty =
/// every instance). `lhs` is the caller's pool-dense LHS: the warm start,
/// and the ground truth every raise is applied to once.
///
/// `persistent` empty: the engine builds one context per processor and
/// owns them (the one-shot run). Otherwise it runs on the caller's
/// contexts, one per processor with a zero dual view, and zeroes the
/// views it touched once the audit has read them (the online epoch).
///
/// Every communication round starts with a declaration of its possible
/// senders (Transport::declareSenders), derived only from what every
/// receiver already holds — the fixed schedule, the groups instances
/// were born into, earlier rounds' inboxes and earlier markers' promises:
///  * a stage's first step, first MIS announce round: the group's due
///    owners (at stage 1 every owner of a group member in this run);
///  * a later step's first announce round: the previous step's
///    announcers (a stage's active set only shrinks);
///  * a join round: that round's announcers;
///  * a later announce round: the previous announcers, minus the
///    joiners' owners (a joiner's owner has nothing left undecided);
///  * a raise round: the owners of the MIS members;
///  * phase 2's pop of tuple t: the owners of t's raises.
///
/// A declared owner with nothing to announce in a step's first round
/// sends only its safe marker, and the marker carries a promise: silence
/// until the first later stage at which one of its instances could fall
/// short (firstShortStage: LHS only grows in phase 1 and stage targets
/// rise), when the owner is due again. An owner still short after a
/// stage's last step is due at the next stage. A live promise proves its
/// owner has no short instance, so a stage's first step scans only the
/// due owners' members.
///
/// Silence only the owners know is paid for in markers, as a real
/// synchronizer would: a step silent by satisfaction spends its first
/// round on the declared owners' markers, and an MIS that finishes early
/// spends one round on the markers of the owners its last round knocked
/// out. Every round charged silent (endSilentRounds) is one whose
/// silence every receiver can compute.
template <class U, class L>
class ProtocolEngine {
 public:
  ProtocolEngine(const U& universe, const L& layering, Transport& transport,
                 const DistributedOptions& options,
                 std::span<const InstanceId> active,
                 std::span<double> lhs,
                 std::span<ProcessorContext> persistent = {})
      : u_(universe),
        lay_(layering),
        opt_(options),
        tracing_(options.tracer, options.metrics, options.ledger,
                 options.observer),
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
        groundLhs_(lhs) {
    // With a tracer, a registry or an enabled ledger attached, the
    // adapter becomes the engine's observer (forwarding to the caller's).
    // Without any it is bypassed entirely — the telemetry-off path is the
    // seed path.
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
    targets_ = plan_.stageTargets();

    const std::int32_t numInst = u_.numInstances();
    members_.resize(static_cast<std::size_t>(lay_.numGroups));
    if (active.empty()) {
      for (InstanceId i = 0; i < numInst; ++i) {
        members_[static_cast<std::size_t>(
                     lay_.group[static_cast<std::size_t>(i)])]
            .push_back(i);
      }
    } else {
      // The restriction must be ascending so the group member lists come
      // out in the order a full enumeration would produce — the keystone
      // of bit-identity with runTwoPhaseRestricted.
      for (std::size_t idx = 0; idx < active.size(); ++idx) {
        const InstanceId i = active[idx];
        checkIndex(i, numInst, "warm-start active instance");
        checkThat(idx == 0 || active[idx - 1] < i,
                  "warm-start active set sorted ascending", __FILE__,
                  __LINE__);
        members_[static_cast<std::size_t>(
                     lay_.group[static_cast<std::size_t>(i)])]
            .push_back(i);
      }
    }
    // A group has at most as many owners as members: size the owner-run
    // buffers once instead of growing them group by group.
    std::size_t largestGroup = 0;
    for (const std::vector<InstanceId>& group : members_) {
      largestGroup = std::max(largestGroup, group.size());
    }
    groupOwners_.reserve(largestGroup);
    runStart_.reserve(largestGroup + 1);
    dueNext_.reserve(largestGroup);
    declaredRuns_.reserve(largestGroup);

    checkThat(groundLhs_.size() == static_cast<std::size_t>(numInst),
              "warm-start LHS covers every instance", __FILE__, __LINE__);
    lhsLocal_.assign(groundLhs_.begin(), groundLhs_.end());
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
      ownedContexts_.resize(static_cast<std::size_t>(numProc_));
      contexts_ = ownedContexts_;
      const ParallelRunner::ShardPlan shardPlan = runner_.plan(numProc_);
      runner_.forShards(shardPlan, [&](std::int32_t shard) {
        const std::int64_t end = shardPlan.end(shard);
        for (std::int64_t p = shardPlan.begin(shard); p < end; ++p) {
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
        weakDualityBound(result.dualObjective, lambdaMeasured_);
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

  double groundLhs(InstanceId i) const {
    return groundLhs_[static_cast<std::size_t>(i)];
  }

  /// Declares the owners of `instances` the round's possible senders,
  /// leaving them in senders_.
  void declareOwnersOf(std::span<const InstanceId> instances) {
    senders_.clear();
    for (const InstanceId i : instances) senders_.push_back(owner(i));
    net_.declareSenders(senders_);
  }

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

  void runPhase1() {
    std::int64_t tuple = 0;
    for (std::int32_t epoch = 0; epoch < lay_.numGroups; ++epoch) {
      const std::vector<InstanceId>& group =
          members_[static_cast<std::size_t>(epoch)];
      obs_->onEpochBegin(epoch, static_cast<std::int32_t>(group.size()));
      buildOwnerRuns(group);
      // Every owner is due at stage 1; promises fill the later queues.
      dueHead_.assign(static_cast<std::size_t>(plan_.numStages) + 1, -1);
      dueNext_.resize(groupOwners_.size());
      declaredRuns_.resize(groupOwners_.size());
      std::iota(declaredRuns_.begin(), declaredRuns_.end(), 0);
      for (std::int32_t stage = 1; stage <= plan_.numStages; ++stage) {
        const double target = targets_[static_cast<std::size_t>(stage - 1)];
        obs_->onStageBegin(epoch, stage, target);
        if (stage > 1) popDue(stage);
        // The stage's active set: the due owners' members. lhs only grows
        // within a stage, so an instance observed satisfied for this
        // target never re-enters — steps scan survivors.
        stageActive_.clear();
        for (const std::int32_t k : declaredRuns_) {
          const auto run = static_cast<std::size_t>(k);
          stageActive_.insert(stageActive_.end(),
                              group.begin() + runStart_[run],
                              group.begin() + runStart_[run + 1]);
        }
        for (std::int32_t step = 1; step <= stepsPerStage_; ++step) {
          runStep(group, epoch, stage, step, tuple, target);
          ++tuple;
        }
        // Owners still short after the stage's last step.
        for (const std::int32_t k : declaredRuns_) enqueue(k, stage + 1);
      }
    }
    obs_->onPhase1Complete(activeSteps_, raises_);
  }

  /// One pass over a group's members (ascending, and numbered demand by
  /// demand): its owners, ascending, and owner k's run of members
  /// group[runStart_[k], runStart_[k + 1]).
  void buildOwnerRuns(const std::vector<InstanceId>& group) {
    groupOwners_.clear();
    runStart_.clear();
    for (std::size_t idx = 0; idx < group.size(); ++idx) {
      const DemandId d = owner(group[idx]);
      if (!groupOwners_.empty() && groupOwners_.back() == d) continue;
      checkThat(groupOwners_.empty() || groupOwners_.back() < d,
                "each owner's group members are contiguous", __FILE__,
                __LINE__);
      groupOwners_.push_back(d);
      runStart_.push_back(static_cast<std::int32_t>(idx));
    }
    runStart_.push_back(static_cast<std::int32_t>(group.size()));
  }

  /// Queues owner run k at `stage`, the first one at which it is due
  /// again; a stage past the plan drops it for the rest of the group.
  void enqueue(std::int32_t k, std::int32_t stage) {
    if (stage > plan_.numStages) return;
    dueNext_[static_cast<std::size_t>(k)] =
        dueHead_[static_cast<std::size_t>(stage)];
    dueHead_[static_cast<std::size_t>(stage)] = k;
  }

  /// The owners due at `stage`, ascending, into declaredRuns_.
  void popDue(std::int32_t stage) {
    declaredRuns_.clear();
    for (std::int32_t k = dueHead_[static_cast<std::size_t>(stage)]; k >= 0;
         k = dueNext_[static_cast<std::size_t>(k)]) {
      declaredRuns_.push_back(k);
    }
    std::sort(declaredRuns_.begin(), declaredRuns_.end());
  }

  /// Leaves the step's first-round declaration, the owners it scanned
  /// (declaredRuns_), in senders_, and splits them: an owner with an
  /// unsatisfied instance announces and stays declared for the next step;
  /// every other one stays silent, and its marker promises silence until
  /// its first possible shortfall, the stage it is queued for.
  void promiseSilence(const std::vector<InstanceId>& group,
                      std::int32_t stage,
                      const std::vector<InstanceId>& unsatisfied) {
    senders_.clear();
    std::size_t next = 0;
    std::size_t kept = 0;
    for (const std::int32_t k : declaredRuns_) {
      const auto run = static_cast<std::size_t>(k);
      const DemandId d = groupOwners_[run];
      senders_.push_back(d);
      if (next < unsatisfied.size() && owner(unsatisfied[next]) == d) {
        declaredRuns_[kept++] = k;
        while (next < unsatisfied.size() && owner(unsatisfied[next]) == d) {
          ++next;
        }
        continue;
      }
      std::int32_t due = plan_.numStages + 1;
      for (std::int32_t idx = runStart_[run];
           idx < runStart_[run + 1] && due > stage + 1; ++idx) {
        const InstanceId i = group[static_cast<std::size_t>(idx)];
        const double lhs = lhsLocal_[static_cast<std::size_t>(i)];
        const double profit = u_.instance(i).profit;
        due = std::min(due, firstShortStage(targets_, stage, lhs, profit));
      }
      enqueue(k, due);
    }
    declaredRuns_.resize(kept);
  }

  /// Advances `rounds` rounds that carry no payload. No receiver can
  /// compute the silence of the owners in senders_, so the first round
  /// declares them and carries their safe markers; the rest are silent.
  void quietRounds(std::int64_t rounds) {
    if (rounds > 0 && !senders_.empty()) {
      net_.declareSenders(senders_);
      net_.endRound();
      --rounds;
    }
    net_.endSilentRounds(rounds);
  }

  /// Reports crash-stop faults taking effect: one Crash record per
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
        obs_->onEvent(
            {.demand = p, .kind = LedgerEventKind::Crash, .tuple = tuple});
      }
    }
  }

  void runStep(const std::vector<InstanceId>& group, std::int32_t epoch,
               std::int32_t stage, std::int32_t step, std::int64_t tuple,
               double target) {
    announceCrashes(tuple);
    const std::int32_t budget = opt_.misRoundBudget;

    // Each alive processor checks its surviving instances of the
    // scheduled group against the stage target (purely local knowledge).
    // Satisfied and crashed instances leave the active set for good.
    filterInstances(stageActive_, unsatisfied_, [&](InstanceId i) {
      return aliveAt(owner(i), tuple) &&
             fallsShort(lhsLocal_[static_cast<std::size_t>(i)],
                        u_.instance(i).profit, target);
    });
    stageActive_.swap(unsatisfied_);
    const std::vector<InstanceId>& unsatisfied = stageActive_;
    promiseSilence(group, stage, unsatisfied);

    if (unsatisfied.empty()) {
      // The fixed schedule still spends the step's rounds, with no
      // payload. Run-to-completion MIS (budget <= 0) costs only the
      // raise round.
      quietRounds(budget > 0 ? 2 * static_cast<std::int64_t>(budget) + 1 : 1);
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
  /// senders_ holds the first round's declaration. Leaves the MIS in
  /// misMembers_, sorted ascending; charges exactly 2*budget rounds when
  /// a budget is set (once the MIS completes early, one round of the
  /// knocked-out owners' markers, then silence). Round-B decisions and
  /// join-propagation are per-instance independent, so both run as
  /// parallel shard sections.
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
      net_.declareSenders(senders_);
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
      declareOwnersOf(undecided_);
      for (const InstanceId v : joiners_) {
        net_.broadcast({MessageKind::MisJoin, owner(v), v, 0.0});
      }
      net_.endRound();
      // The next announce round's possible senders.
      joinerOwners_.clear();
      for (const InstanceId v : joiners_) {
        joinerOwners_.push_back(owner(v));
      }
      std::sort(joinerOwners_.begin(), joinerOwners_.end());
      std::erase_if(senders_, [&](DemandId p) {
        return std::binary_search(joinerOwners_.begin(), joinerOwners_.end(),
                                  p);
      });

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
      quietRounds(2 * static_cast<std::int64_t>(budget - lastLubyRounds_));
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
    declareOwnersOf(misMembers);
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
      obs_->onEvent({.demand = p,
                     .kind = LedgerEventKind::DualRaise,
                     .instance = i,
                     .tuple = tuple,
                     .alphaIncrement = amounts.alphaIncrement,
                     .betaIncrement = amounts.betaIncrement});
      ++raises_;
      // Ground truth, applied in the centralized engine's order.
      applyRaise(groundDual_, u_, i, critical, amounts);
      applyRaiseToLhs(u_, opt_.rule, i, critical, amounts, groundLhs_);
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
    forEachParallel(activeProcs_, [&](std::int32_t p) {
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
    for (const std::vector<InstanceId>& group : members_) {
      for (const InstanceId i : group) {
        if (!aliveP2(owner(i))) continue;
        any = true;
        lambda = std::min(lambda, groundLhs(i) / u_.instance(i).profit);
      }
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
        if (lhsLocal_[static_cast<std::size_t>(k)] != groundLhs(k)) {
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
    // Decision provenance: the certificate book is kept only for an
    // ENABLED ledger, so a null or disabled one keeps the pop on the
    // allocation-free path (tests/provenance_test.cpp) and its rejections
    // name no blocker. Slackness is already measured, so every rejection
    // is certified as it happens.
    CertificateBook book;
    if (ledgerOn_) book.reset(u_);
    const auto lhsOf = [&](InstanceId k) { return groundLhs(k); };
    const auto reject = [&](std::int64_t t, InstanceId i,
                            RejectReason reason) {
      LedgerEvent ev = book.rejection(u_, i, t, reason);
      book.certify(u_, lhsOf, lambdaMeasured_, ev);
      obs_->onEvent(ev);
      ++rejects;
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
      senders_.clear();
      for (std::size_t k = begin; k < top; ++k) {
        senders_.push_back(owner(raiseLog_[k].instance));
      }
      net_.declareSenders(senders_);
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
        if (ledgerOn_) book.admit(u_, i);
        obs_->onEvent({.demand = p,
                       .kind = LedgerEventKind::Admitted,
                       .instance = i,
                       .tuple = t});
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
      forEachParallel(activeProcs_, [&](std::int32_t p) {
        if (!aliveP2(p)) return;
        ProcessorContext& context = contexts_[static_cast<std::size_t>(p)];
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
  std::vector<double> targets_;  ///< plan_.stageTargets()
  std::int32_t numProc_ = 0;
  std::int32_t stepsPerStage_ = 0;
  std::int64_t scheduledSteps_ = 0;
  /// Per group, the instances this run may raise (ascending).
  std::vector<std::vector<InstanceId>> members_;

  // Per-processor contexts (the caller's persistent ones, or built and
  // owned here) plus the owner-indexed lhs views (entry i is written only
  // by owner(i)'s context).
  bool persistentContexts_ = false;
  std::vector<ProcessorContext> ownedContexts_;
  std::span<ProcessorContext> contexts_;
  /// Processors that applied a raise (persistent contexts only).
  std::vector<DemandId> touchedProcs_;
  std::vector<double> lhsLocal_;

  bool ledgerOn_ = false;  ///< enabled ledger set: keep a CertificateBook

  // Ground truth for the audit and the reported dual objective.
  DualState groundDual_;
  std::span<double> groundLhs_;

  // Faults (uint8, not vector<bool>: read concurrently from shards).
  std::vector<std::uint8_t> crashed_;
  std::int32_t crashedCount_ = 0;
  bool crashAnnounced_ = false;  ///< Crash records sent (once per run)

  // Per-step scratch, reused across steps to keep the hot loop
  // allocation-free after warmup.
  std::vector<MisStatus> misStatus_;
  std::vector<std::uint64_t> priority_;  ///< per instance, current round
  std::vector<InstanceId> stageActive_;
  std::vector<InstanceId> unsatisfied_;
  std::vector<InstanceId> undecided_;
  std::vector<InstanceId> joiners_;
  std::vector<InstanceId> misMembers_;
  /// The current group's owners (ascending) and their member runs
  /// (buildOwnerRuns).
  std::vector<DemandId> groupOwners_;
  std::vector<std::int32_t> runStart_;
  /// The due queue: dueHead_[s] heads the list, linked through dueNext_,
  /// of the owner runs due at stage s (-1 ends it). An owner is queued at
  /// one stage at a time, so one link each suffices.
  std::vector<std::int32_t> dueHead_;
  std::vector<std::int32_t> dueNext_;
  /// The owner runs (ascending) the next step's first round declares.
  std::vector<std::int32_t> declaredRuns_;
  /// Round declarations: the next round's possible senders and the
  /// joiners' owners.
  std::vector<DemandId> senders_;
  std::vector<DemandId> joinerOwners_;
  std::vector<std::vector<InstanceId>> shardLists_;
  std::vector<std::int32_t> activeProcs_;
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
    Transport& transport, const DistributedOptions& options,
    std::span<const InstanceId> active) {
  std::vector<double> lhs(static_cast<std::size_t>(universe.numInstances()),
                          0.0);
  ProtocolEngine<InstanceUniverse, Layering> engine(
      universe, layering, transport, options, active, lhs);
  return engine.run();
}

Phase1Result runDistributedPhase1(const DynamicUniverse& universe,
                                  Transport& transport,
                                  const DistributedOptions& options,
                                  std::span<const InstanceId> active,
                                  std::span<double> lhs,
                                  std::span<ProcessorContext> contexts) {
  checkThat(!active.empty(), "dynamic warm start names its live active set",
            __FILE__, __LINE__);
  checkThat(contexts.size() ==
                static_cast<std::size_t>(universe.numDemands()),
            "one persistent context per pool demand", __FILE__, __LINE__);
  const DynamicLayeringView layering = universe.layeringView();
  ProtocolEngine<DynamicUniverse, DynamicLayeringView> engine(
      universe, layering, transport, options, active, lhs, contexts);
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
