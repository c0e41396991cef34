#include "engine/parallel_runner.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace treesched {

namespace {

/// Minimum items per shard: below this the dispatch overhead dominates.
/// Small on purpose so the unit-test-sized problems still cross threads
/// (the TSan CI leg needs real concurrency to observe).
constexpr std::int64_t kMinShardSize = 16;

/// Shards per thread: enough claim slots that an unlucky slow shard does
/// not serialize the section's tail.
constexpr std::int64_t kShardsPerThread = 8;

}  // namespace

ParallelRunner::ParallelRunner(std::int32_t threads)
    : threads_(std::max<std::int32_t>(1, threads)) {
  checkThat(threads_ <= kMaxThreads, "threads <= ParallelRunner::kMaxThreads",
            __FILE__, __LINE__);
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (std::int32_t t = 1; t < threads_; ++t) {
    workers_.emplace_back([this, t] { workerLoop(t); });
  }
}

ParallelRunner::~ParallelRunner() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

ParallelRunner::ShardPlan ParallelRunner::plan(std::int64_t count) const {
  ShardPlan shardPlan;
  shardPlan.count = std::max<std::int64_t>(0, count);
  if (shardPlan.count == 0) {
    return shardPlan;
  }
  const std::int64_t targetShards =
      static_cast<std::int64_t>(threads_) * kShardsPerThread;
  shardPlan.shardSize = std::max(
      kMinShardSize, (shardPlan.count + targetShards - 1) / targetShards);
  shardPlan.numShards = static_cast<std::int32_t>(
      (shardPlan.count + shardPlan.shardSize - 1) / shardPlan.shardSize);
  return shardPlan;
}

void ParallelRunner::claimShards(const ShardFn& fn, std::int32_t numShards,
                                 std::int32_t participant) {
  std::int64_t claimed = 0;
  std::int64_t stolen = 0;
  for (;;) {
    const std::int64_t shard = cursor_.next.fetch_add(1);
    if (shard >= numShards) {
      break;
    }
    try {
      fn(static_cast<std::int32_t>(shard));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!firstError_) {
        firstError_ = std::current_exception();
      }
    }
    ++claimed;
    // Outside this participant's even share of the section's shards.
    if ((shard * threads_ + threads_ - 1) / numShards != participant) {
      ++stolen;
    }
  }
  if (claimed != 0) {
    claimsTotal_.fetch_add(claimed, std::memory_order_relaxed);
  }
  if (stolen != 0) {
    stealsTotal_.fetch_add(stolen, std::memory_order_relaxed);
  }
  // The barrier releases only once every participant has LEFT the claim
  // loop: were it released on the shard count alone, a straggler still
  // claiming here could take a shard of the next section's reset cursor.
  std::lock_guard<std::mutex> lock(mutex_);
  if (--claimers_ == 0) {
    done_.notify_all();
  }
}

void ParallelRunner::attachTelemetry(Tracer* tracer, MetricsRegistry* metrics) {
  tracer_ = tracer;
  trace_ = tracer != nullptr && tracer->enabled();
  if (metrics != nullptr) {
    claimsCounter_ = &metrics->counter("engine.claims");
    // Count from attach time: pre-attach traffic is not this run's.
    flushedClaims_ = claimsTotal_.load(std::memory_order_relaxed);
  } else {
    claimsCounter_ = nullptr;
  }
}

void ParallelRunner::publishCounters() {
  if (claimsCounter_ == nullptr) {
    return;
  }
  const std::int64_t c = claimsTotal_.load(std::memory_order_relaxed);
  claimsCounter_->add(c - flushedClaims_);
  flushedClaims_ = c;
}

void ParallelRunner::forShards(const ShardPlan& plan, ShardFn fn) {
  if (plan.numShards <= 0) {
    return;
  }
  if (!trace_) {
    dispatch(plan, fn);
    publishCounters();
    return;
  }
  // Traced section: shards stamp begin/end ticks into their own slots;
  // the calling thread emits the spans after the barrier, in shard-id
  // order (never by completion order).
  const auto shards = static_cast<std::size_t>(plan.numShards);
  if (shardBegin_.size() < shards) {
    shardBegin_.resize(shards);
    shardEnd_.resize(shards);
  }
  auto timed = [&](std::int32_t shard) {
    const auto slot = static_cast<std::size_t>(shard);
    shardBegin_[slot] = tracer_->now();
    fn(shard);
    shardEnd_[slot] = tracer_->now();
  };
  dispatch(plan, ShardFn(timed));
  publishCounters();
  for (std::int32_t shard = 0; shard < plan.numShards; ++shard) {
    const auto slot = static_cast<std::size_t>(shard);
    tracer_->completeAt("shard", "engine", shard + 1, shardBegin_[slot],
                        shardEnd_[slot],
                        {{"shard", shard},
                         {"items", plan.end(shard) - plan.begin(shard)}});
  }
}

void ParallelRunner::dispatch(const ShardPlan& plan, const ShardFn& fn) {
  if (workers_.empty() || plan.numShards == 1) {
    for (std::int32_t shard = 0; shard < plan.numShards; ++shard) {
      fn(shard);
    }
    claimsTotal_.fetch_add(plan.numShards, std::memory_order_relaxed);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    numShards_ = plan.numShards;
    cursor_.next.store(0);
    claimers_ = 1;  // the calling thread
    ++generation_;
  }
  wake_.notify_all();
  claimShards(fn, plan.numShards, 0);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return claimers_ == 0; });
    job_ = nullptr;
    error = firstError_;
    firstError_ = nullptr;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void ParallelRunner::workerLoop(std::int32_t participant) {
  std::uint64_t seen = 0;
  for (;;) {
    const ShardFn* fn = nullptr;
    std::int32_t numShards = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
      fn = job_;
      numShards = numShards_;
      if (fn != nullptr) {
        ++claimers_;
      }
    }
    if (fn != nullptr) {
      claimShards(*fn, numShards, participant);
    }
  }
}

}  // namespace treesched
