#ifndef HOMETS_COMMON_THREAD_POOL_H_
#define HOMETS_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace homets {

/// \brief Resolves a thread-count request: values > 0 pass through, 0 (and
/// negatives) mean "use the hardware concurrency" (>= 1).
inline int ResolveThreadCount(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

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
  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(ResolveThreadCount(threads)), n_blocks));
  if (workers <= 1) {
    fn(0, n, 0);
    return;
  }
  std::atomic<size_t> next_block{0};
  const auto drain = [&](int worker) {
    for (size_t b = next_block.fetch_add(1, std::memory_order_relaxed);
         b < n_blocks; b = next_block.fetch_add(1, std::memory_order_relaxed)) {
      const size_t begin = b * block;
      fn(begin, std::min(begin + block, n), worker);
    }
  };
  // The caller is worker 0, so the pool spawns workers - 1 threads.
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) pool.emplace_back(drain, w);
  drain(0);
  for (auto& t : pool) t.join();
}

}  // namespace homets

#endif  // HOMETS_COMMON_THREAD_POOL_H_
