#ifndef HOMETS_COMMON_THREAD_POOL_H_
#define HOMETS_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/prof_hooks.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace homets {

/// \brief Resolves a thread-count request: values > 0 pass through, 0 (and
/// negatives) mean "use the hardware concurrency" (>= 1).
inline int ResolveThreadCount(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace thread_pool_internal {

/// \brief One loop's dispatch metrics and block clock: the loop/task
/// counters at dispatch, one task-latency observation per block and, behind
/// one relaxed profiler load, the per-block queue wait and run time plus the
/// loop's busy/idle totals. Atomic increments only — this header runs under
/// TSan via the `threads` ctest label.
class LoopClock {
 public:
  explicit LoopClock(size_t n_blocks) : prof_on_(prof::ProfilerEnabled()) {
    // With --prof off the loop pays no extra clock reads or atomic traffic.
    if (prof_on_) loop_start_ = Clock::now();
    const Metrics& m = GetMetrics();
    m.loops->Increment();
    m.tasks->Increment(n_blocks);
  }

  /// Hands out the next block index; >= n_blocks once all are taken.
  size_t NextBlock() { return next_.fetch_add(1, std::memory_order_relaxed); }

  /// Runs `fn()` as one block executed by `worker` and times it.
  template <typename Fn>
  void TimeBlock(int worker, const Fn& fn) {
    const auto start = Clock::now();
    fn();
    const auto stop = Clock::now();
    GetMetrics().task_latency_us->Observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(stop - start)
            .count()));
    if (!prof_on_) return;
    const uint64_t run = NsBetween(start, stop);
    // Queue wait for a batch-submitted block: dispatch start -> block start.
    // With more blocks than cores this grows over the loop and is exactly
    // the serialization the profiler wants to show.
    const uint64_t waited = NsBetween(loop_start_, start);
    prof::RecordPoolBlock(worker, waited, run);
    GetMetrics().queue_wait_us->Observe(static_cast<double>(waited) / 1000.0);
    busy_ns_.fetch_add(run, std::memory_order_relaxed);
    wait_ns_.fetch_add(waited, std::memory_order_relaxed);
  }

  /// Closes the loop after `used_workers` workers joined.
  void Close(int used_workers) {
    if (!prof_on_) return;
    const Metrics& m = GetMetrics();
    const uint64_t wall = NsBetween(loop_start_, Clock::now());
    const uint64_t busy = busy_ns_.load(std::memory_order_relaxed);
    prof::RecordPoolLoop(used_workers, wall, busy);
    m.prof_busy_us->Increment(busy / 1000);
    const uint64_t capacity = static_cast<uint64_t>(used_workers) * wall;
    m.prof_idle_us->Increment(capacity > busy ? (capacity - busy) / 1000 : 0);
    m.prof_queue_wait_us->Increment(
        wait_ns_.load(std::memory_order_relaxed) / 1000);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Metrics {
    obs::Counter* loops;
    obs::Counter* tasks;
    obs::Histogram* task_latency_us;
    obs::Histogram* queue_wait_us;
    obs::Counter* prof_busy_us;
    obs::Counter* prof_idle_us;
    obs::Counter* prof_queue_wait_us;
  };

  static const Metrics& GetMetrics() {
    static const Metrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return Metrics{registry.GetCounter(obs::kThreadPoolLoops),
                     registry.GetCounter(obs::kThreadPoolTasks),
                     registry.GetHistogram(obs::kThreadPoolTaskLatencyUs),
                     registry.GetHistogram(obs::kThreadPoolQueueWaitUs),
                     registry.GetCounter(obs::kProfPoolBusyUs),
                     registry.GetCounter(obs::kProfPoolIdleUs),
                     registry.GetCounter(obs::kProfQueueWaitUs)};
    }();
    return metrics;
  }

  static uint64_t NsBetween(Clock::time_point a, Clock::time_point b) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  }

  const bool prof_on_;
  Clock::time_point loop_start_{};
  std::atomic<size_t> next_{0};
  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint64_t> wait_ns_{0};
};

/// Runs `drain(worker)` on `workers` threads, the caller being worker 0
/// (so one worker spawns no thread).
template <typename Drain>
void RunWorkers(int workers, const Drain& drain) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) pool.emplace_back(drain, w);
  drain(0);
  for (auto& t : pool) t.join();
}

}  // namespace thread_pool_internal

/// \brief Chunked parallel loop over [0, n).
///
/// The range is cut into fixed-size blocks handed out by an atomic counter
/// (work stealing at block granularity), so uneven per-item cost balances
/// across workers. `fn(begin, end, worker)` is invoked for each block with
/// `worker` in [0, workers); workers never share a block, so `fn` may keep
/// per-worker scratch state indexed by `worker` without synchronization.
///
/// Determinism contract: which worker runs which block (and in what order)
/// is scheduling-dependent, so `fn` must write only to output slots that are
/// a pure function of the index range — then the overall result is
/// bit-identical for every thread count, including 1.
///
/// Runs inline on the calling thread (worker 0) when `threads` resolves
/// to 1 or the range fits in a single block. `block` must be >= 1.
inline void ParallelFor(size_t n, int threads, size_t block,
                        const std::function<void(size_t, size_t, int)>& fn) {
  if (n == 0) return;
  if (block == 0) block = 1;
  const size_t n_blocks = (n + block - 1) / block;
  thread_pool_internal::LoopClock clock(n_blocks);
  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(ResolveThreadCount(threads)), n_blocks));
  if (workers <= 1) {
    clock.TimeBlock(0, [&] { fn(0, n, 0); });
    clock.Close(1);
    return;
  }
  thread_pool_internal::RunWorkers(workers, [&](int worker) {
    for (size_t b = clock.NextBlock(); b < n_blocks; b = clock.NextBlock()) {
      const size_t begin = b * block;
      const size_t end = std::min(begin + block, n);
      clock.TimeBlock(worker, [&] { fn(begin, end, worker); });
    }
  });
  clock.Close(workers);
}

}  // namespace homets

#endif  // HOMETS_COMMON_THREAD_POOL_H_
