// Fixed thread pool executing shard groups with deterministic merges.
//
// The §5 protocol is embarrassingly parallel across processors within a
// round: every per-processor decision reads only the previous round's
// state (inboxes, statuses) and writes only processor-owned slots. The
// ParallelRunner exploits exactly that shape: a parallel section cuts an
// index range into contiguous shards of equal size, and every participant
// (worker threads plus the calling thread) claims the next unclaimed
// shard from one shared atomic cursor until the cursor passes the last
// shard — so the calling thread drains the section while parked workers
// wake, and one slow shard never leaves the rest of the pool idle.
// forShards() returns only when every shard has completed — the
// deterministic round barrier.
//
// Determinism contract: a section's callback must confine writes to
// shard-owned slots (disjoint elements, or per-shard output buffers the
// caller concatenates BY SHARD ID after the barrier, never by thread
// completion order). Under that discipline the result of a run is a pure
// function of the inputs — bit-identical at any thread count, including
// the serial threads=1 path, because every floating-point accumulation
// still happens in the same per-owner sequence. The shard partition and
// the claim order are pure performance knobs: they can depend on the
// thread count and on runtime timing precisely because no callback
// result depends on which shard (or thread) computed it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace treesched {

class Counter;
class MetricsRegistry;
class Tracer;

/// Non-owning callable reference (avoids std::function heap traffic in
/// the round hot loop). The referenced callable must outlive the call —
/// forShards() completes synchronously, so passing a temporary lambda at
/// the call site is fine.
class ShardFn {
 public:
  template <typename F>
  ShardFn(F&& f)  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* object, std::int32_t shard) {
          (*static_cast<std::remove_reference_t<F>*>(object))(shard);
        }) {}

  void operator()(std::int32_t shard) const { call_(object_, shard); }

 private:
  void* object_;
  void (*call_)(void*, std::int32_t);
};

class ParallelRunner {
 public:
  /// Largest accepted thread count: every thread is an OS thread, so a
  /// bad flag must fail here rather than ask the OS for millions.
  static constexpr std::int32_t kMaxThreads = 256;

  /// Spawns `threads - 1` workers (the calling thread participates in
  /// every section). threads <= 1 spawns nothing: every section runs
  /// inline, which IS the serial engine. Throws CheckError, before any
  /// thread starts, when threads > kMaxThreads.
  explicit ParallelRunner(std::int32_t threads = 1);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  std::int32_t threads() const { return threads_; }

  /// A partition of [0, count) into contiguous shards of shardSize items
  /// (the last may be shorter), in order: shard s spans
  /// [begin(s), end(s)).
  struct ShardPlan {
    std::int64_t count = 0;
    std::int64_t shardSize = 1;
    std::int32_t numShards = 0;

    std::int64_t begin(std::int32_t shard) const {
      return static_cast<std::int64_t>(shard) * shardSize;
    }
    std::int64_t end(std::int32_t shard) const {
      const std::int64_t e = begin(shard) + shardSize;
      return e < count ? e : count;
    }
  };

  /// Plans shards for `count` items: enough shards per thread that claim
  /// order balances load, but never shards smaller than a minimum grain.
  ShardPlan plan(std::int64_t count) const;

  /// Runs fn(shard) for every shard of `plan` and returns after ALL have
  /// completed (the barrier). The first exception thrown by any shard is
  /// rethrown here after the barrier.
  void forShards(const ShardPlan& plan, ShardFn fn);

  /// Shards executed, and the subset that participant t of T ran outside
  /// its even share [floor(n*t/T), floor(n*(t+1)/T)) of a section's n
  /// shards, summed over the runner's lifetime (sections that run inline
  /// steal nothing). Plain accessors so benches can report claim traffic
  /// without attaching telemetry (protecting their heap-allocation
  /// ground truth).
  std::int64_t claims() const {
    return claimsTotal_.load(std::memory_order_relaxed);
  }
  std::int64_t steals() const {
    return stealsTotal_.load(std::memory_order_relaxed);
  }

  /// Attaches telemetry (nullptr detaches). With a live tracer every
  /// parallel section emits one "shard" span per shard on trace tid
  /// `shard + 1` (tid 0 is the protocol's). Shards record their
  /// begin/end ticks into shard-owned slots during the section and the
  /// calling thread emits them AFTER the barrier, in shard-id order —
  /// the same merge discipline as every other shard output, so tracing
  /// cannot perturb execution or determinism. With a live registry the
  /// calling thread flushes the `engine.claims` counter delta after each
  /// barrier (a serial section, per the metrics discipline). Claims
  /// total the shard count at any thread count; steals depend on which
  /// thread wins each race, so they stay out of the registry (which
  /// reproduces bit for bit) and are read through steals() alone.
  /// Timing slots are grow-only; steady-state sections allocate nothing.
  void attachTelemetry(Tracer* tracer, MetricsRegistry* metrics = nullptr);

 private:
  /// The next unclaimed shard of the running section. Alone on its cache
  /// line: every claim writes it, and sharing a line with the mutex or
  /// the section fields would make each claim contend with them.
  struct alignas(64) Cursor {
    std::atomic<std::int64_t> next{0};
  };

  void workerLoop(std::int32_t participant);
  void claimShards(const ShardFn& fn, std::int32_t numShards,
                   std::int32_t participant);
  void dispatch(const ShardPlan& plan, const ShardFn& fn);
  void publishCounters();

  std::int32_t threads_ = 1;
  std::vector<std::thread> workers_;
  Cursor cursor_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const ShardFn* job_ = nullptr;  ///< guarded by mutex_
  std::int32_t numShards_ = 0;    ///< the running section's; guarded by mutex_
  std::int32_t claimers_ = 0;     ///< threads inside the claim loop
  std::uint64_t generation_ = 0;  ///< guarded by mutex_
  bool stop_ = false;             ///< guarded by mutex_
  std::exception_ptr firstError_;  ///< guarded by mutex_

  std::atomic<std::int64_t> claimsTotal_{0};
  std::atomic<std::int64_t> stealsTotal_{0};

  // Telemetry (null/false when detached).
  Tracer* tracer_ = nullptr;
  bool trace_ = false;  ///< tracer present and enabled
  Counter* claimsCounter_ = nullptr;
  std::int64_t flushedClaims_ = 0;  ///< counter total already published
  std::vector<std::int64_t> shardBegin_;  ///< shard-owned timing slots
  std::vector<std::int64_t> shardEnd_;
};

}  // namespace treesched
