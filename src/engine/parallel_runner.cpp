#include "engine/parallel_runner.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesched {

namespace {

/// Minimum items per shard: below this the dispatch overhead dominates.
/// Small on purpose so the unit-test-sized problems still cross threads
/// (the TSan CI leg needs real concurrency to observe).
constexpr std::int64_t kMinShardSize = 16;

/// Shards per thread: enough claim slots that an unlucky slow shard does
/// not serialize the section's tail.
constexpr std::int64_t kShardsPerThread = 8;

std::uint64_t packRange(std::uint32_t begin, std::uint32_t end) {
  return (static_cast<std::uint64_t>(begin) << 32) | end;
}

std::uint32_t rangeBegin(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed >> 32);
}

std::uint32_t rangeEnd(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed & 0xffffffffu);
}

}  // namespace

ParallelRunner::ParallelRunner(std::int32_t threads)
    : threads_(std::max<std::int32_t>(1, threads)),
      ranges_(new ShardRange[static_cast<std::size_t>(
          std::max<std::int32_t>(1, threads))]) {
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

void ParallelRunner::planWeighted(std::span<const std::int64_t> weights,
                                  ShardPlan& out) const {
  out.count = static_cast<std::int64_t>(weights.size());
  out.shardSize = 1;
  out.numShards = 0;
  out.bounds.clear();
  if (out.count == 0) {
    return;
  }
  const std::int64_t targetShards =
      static_cast<std::int64_t>(threads_) * kShardsPerThread;
  std::int64_t total = 0;
  for (const std::int64_t w : weights) {
    total += std::max<std::int64_t>(1, w);
  }
  // Weight per shard: items clamp to weight >= 1, so for uniform weights
  // this degrades exactly to plan()'s item grain.
  const std::int64_t grain = std::max(
      kMinShardSize, (total + targetShards - 1) / targetShards);
  out.bounds.push_back(0);
  std::int64_t acc = 0;
  for (std::int64_t i = 0; i < out.count; ++i) {
    acc += std::max<std::int64_t>(1, weights[i]);
    if (acc >= grain && i + 1 < out.count) {
      out.bounds.push_back(i + 1);
      acc = 0;
    }
  }
  out.bounds.push_back(out.count);
  out.numShards = static_cast<std::int32_t>(out.bounds.size()) - 1;
}

void ParallelRunner::claimShards(const ShardFn& fn, std::int32_t participant) {
  std::int64_t popped = 0;
  std::int64_t stolen = 0;
  auto run = [&](std::uint32_t shard) {
    try {
      fn(static_cast<std::int32_t>(shard));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!firstError_) {
        firstError_ = std::current_exception();
      }
    }
  };
  for (;;) {
    // Drain the owned block front-to-back.
    std::atomic<std::uint64_t>& own =
        ranges_[static_cast<std::size_t>(participant)].packed;
    std::uint64_t cur = own.load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t b = rangeBegin(cur);
      const std::uint32_t e = rangeEnd(cur);
      if (b >= e) {
        break;
      }
      if (own.compare_exchange_weak(cur, packRange(b + 1, e),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
        run(b);
        ++popped;
        cur = own.load(std::memory_order_acquire);
      }
    }
    // Steal one shard from the back of the first non-empty victim.
    // Ranges only shrink within a section, so a full scan finding every
    // block empty means no unclaimed shard remains.
    bool stole = false;
    for (std::int32_t k = 1; k < threads_ && !stole; ++k) {
      const std::int32_t victim = (participant + k) % threads_;
      std::atomic<std::uint64_t>& range =
          ranges_[static_cast<std::size_t>(victim)].packed;
      std::uint64_t vcur = range.load(std::memory_order_acquire);
      for (;;) {
        const std::uint32_t b = rangeBegin(vcur);
        const std::uint32_t e = rangeEnd(vcur);
        if (b >= e) {
          break;
        }
        if (range.compare_exchange_weak(vcur, packRange(b, e - 1),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          run(e - 1);
          ++stolen;
          stole = true;
          break;
        }
      }
    }
    if (!stole) {
      break;
    }
  }
  // Claims count every shard this participant EXECUTED (owned pops plus
  // steals), so claims across a run always equals the shard count and
  // steals <= claims holds even for a thread that only ever stole.
  if (popped + stolen != 0) {
    claimsTotal_.fetch_add(popped + stolen, std::memory_order_relaxed);
  }
  if (stolen != 0) {
    stealsTotal_.fetch_add(stolen, std::memory_order_relaxed);
  }
  // The barrier releases only once every participant has LEFT the claim
  // loop: were it released on the shard count alone, a straggler still
  // scanning here could claim into the next section's reset ranges.
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
    // One contiguous block of shards per participant; the owner pops
    // the front, thieves take the back.
    const std::int64_t n = plan.numShards;
    for (std::int32_t t = 0; t < threads_; ++t) {
      const auto lo = static_cast<std::uint32_t>(n * t / threads_);
      const auto hi = static_cast<std::uint32_t>(n * (t + 1) / threads_);
      ranges_[static_cast<std::size_t>(t)].packed.store(
          packRange(lo, hi), std::memory_order_relaxed);
    }
    claimers_ = 1;  // the calling thread
    ++generation_;
  }
  wake_.notify_all();
  claimShards(fn, 0);
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
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) {
        return;
      }
      seen = generation_;
      fn = job_;
      if (fn != nullptr) {
        ++claimers_;
      }
    }
    if (fn != nullptr) {
      claimShards(*fn, participant);
    }
  }
}

}  // namespace treesched
