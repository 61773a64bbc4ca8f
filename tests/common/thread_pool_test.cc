#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <vector>


namespace homets {
namespace {

TEST(ResolveThreadCountTest, PositivePassesThroughZeroMeansHardware) {
  EXPECT_EQ(ResolveThreadCount(3), 3);
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-5), 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 9}) {
    for (const size_t n : {1u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      ParallelFor(n, threads, 16, [&](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads over " << n;
      }
    }
  }
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  bool invoked = false;
  ParallelFor(0, 4, 8, [&](size_t, size_t, int) { invoked = true; });
  EXPECT_FALSE(invoked);
}

TEST(ParallelForTest, SingleThreadRunsInlineAsWorkerZero) {
  std::set<int> workers;
  ParallelFor(100, 1, 8, [&](size_t, size_t, int worker) {
    workers.insert(worker);  // no mutex needed: inline execution
  });
  EXPECT_EQ(workers, std::set<int>{0});
}

TEST(ParallelForTest, SingleBlockRunsInline) {
  // Range fits in one block: must run inline even with many threads asked.
  std::set<int> workers;
  ParallelFor(10, 8, 64, [&](size_t begin, size_t end, int worker) {
    workers.insert(worker);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
  });
  EXPECT_EQ(workers, std::set<int>{0});
}

TEST(ParallelForTest, MoreThreadsThanBlocksClampsWorkers) {
  std::mutex mu;
  std::set<int> workers;
  // 3 blocks of 4 over n=12 with 16 threads -> at most 3 workers.
  ParallelFor(12, 16, 4, [&](size_t, size_t, int worker) {
    std::lock_guard<std::mutex> lock(mu);
    workers.insert(worker);
  });
  EXPECT_LE(workers.size(), 3u);
  for (const int w : workers) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 3);
  }
}

TEST(ParallelForTest, WorkerIdsPartitionTheWork) {
  // Per-worker accumulation (the engine's workspace pattern): sums indexed
  // by worker id must total the whole range with no double counting.
  const size_t n = 10000;
  const int threads = 4;
  std::vector<long long> per_worker(static_cast<size_t>(threads), 0);
  ParallelFor(n, threads, 32, [&](size_t begin, size_t end, int worker) {
    for (size_t i = begin; i < end; ++i) {
      per_worker[static_cast<size_t>(worker)] += static_cast<long long>(i);
    }
  });
  long long total = 0;
  for (const long long s : per_worker) total += s;
  EXPECT_EQ(total, static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ParallelForTest, ZeroBlockSizeIsTreatedAsOne) {
  std::atomic<size_t> covered{0};
  ParallelFor(25, 2, 0, [&](size_t begin, size_t end, int) {
    covered.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 25u);
}

}  // namespace
}  // namespace homets
