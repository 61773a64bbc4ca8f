#ifndef HOMETS_COMMON_THREAD_POOL_H_
#define HOMETS_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

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
/// counters at dispatch and one task-latency observation per block. Atomic
/// increments only — this header runs under TSan via the `threads` ctest
/// label.
class LoopClock {
 public:
  explicit LoopClock(size_t n_blocks) {
    const Metrics& m = GetMetrics();
    m.loops->Increment();
    m.tasks->Increment(n_blocks);
  }

  /// Hands out the next block index; >= n_blocks once all are taken.
  size_t NextBlock() { return next_.fetch_add(1, std::memory_order_relaxed); }

  /// Runs `fn()` as one block and times it.
  template <typename Fn>
  void TimeBlock(const Fn& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    GetMetrics().task_latency_us->Observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(stop - start)
            .count()));
  }

 private:
  struct Metrics {
    obs::Counter* loops;
    obs::Counter* tasks;
    obs::Histogram* task_latency_us;
  };

  static const Metrics& GetMetrics() {
    static const Metrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return Metrics{registry.GetCounter(obs::kThreadPoolLoops),
                     registry.GetCounter(obs::kThreadPoolTasks),
                     registry.GetHistogram(obs::kThreadPoolTaskLatencyUs)};
    }();
    return metrics;
  }

  std::atomic<size_t> next_{0};
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
    clock.TimeBlock([&] { fn(0, n, 0); });
    return;
  }
  thread_pool_internal::RunWorkers(workers, [&](int worker) {
    for (size_t b = clock.NextBlock(); b < n_blocks; b = clock.NextBlock()) {
      const size_t begin = b * block;
      const size_t end = std::min(begin + block, n);
      clock.TimeBlock([&] { fn(begin, end, worker); });
    }
  });
}

}  // namespace homets

#endif  // HOMETS_COMMON_THREAD_POOL_H_
