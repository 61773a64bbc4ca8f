// Execution-profiler contract tests: the common/prof_hooks.h accumulators
// written by Mutex / ParallelFor hot paths, the obs/prof snapshot + publish
// surface, and the StageTimer resource accounting in run manifests. Runs
// under the `prof` ctest label, including a TSan pass (run_all_gates.sh), so
// every assertion here must be race-free against the instrumented paths.
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "common/prof_hooks.h"
#include "common/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace homets::obs {
namespace {

// Every test starts from zeroed accumulators with the profiler ON and leaves
// it OFF, so test order cannot leak instrumentation into other suites.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResetProfCounters();
    EnableProfiler(true);
  }
  void TearDown() override {
    EnableProfiler(false);
    EnableAllocTally(false);
    ResetProfCounters();
  }
};

TEST_F(ProfTest, ContendedLockIsRecordedWithItsName) {
  Mutex mu("prof_test.contended");
  std::atomic<bool> held{false};
  std::thread holder([&] {
    MutexLock lock(&mu);
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  mu.Lock();  // must block: the holder sleeps while holding
  mu.Unlock();
  holder.join();

  const ProfSnapshot snap = CaptureProfSnapshot();
  EXPECT_GE(snap.contended_locks, 1u);
  EXPECT_GT(snap.lock_wait_ns, 0u);
  bool found = false;
  for (const auto& entry : snap.locks) {
    if (entry.name == "prof_test.contended") {
      found = true;
      EXPECT_GE(entry.contended, 1u);
      EXPECT_GT(entry.wait_ns, 0u);
    }
  }
  EXPECT_TRUE(found) << "named slot missing from snapshot";
}

TEST_F(ProfTest, UncontendedLockRecordsNothing) {
  Mutex mu("prof_test.uncontended");
  for (int i = 0; i < 100; ++i) {
    MutexLock lock(&mu);
  }
  EXPECT_EQ(CaptureProfSnapshot().contended_locks, 0u);
}

TEST_F(ProfTest, DisabledProfilerRecordsNothing) {
  EnableProfiler(false);
  Mutex mu("prof_test.disabled");
  std::atomic<bool> held{false};
  std::thread holder([&] {
    MutexLock lock(&mu);
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  mu.Lock();
  mu.Unlock();
  holder.join();
  ParallelFor(64, 4, 1, [](size_t, size_t, int) {});

  const ProfSnapshot snap = CaptureProfSnapshot();
  EXPECT_EQ(snap.contended_locks, 0u);
  EXPECT_EQ(snap.pool_blocks, 0u);
  EXPECT_EQ(snap.pool_loops, 0u);
}

TEST_F(ProfTest, ParallelForAccountsBlocksPerWorker) {
  std::atomic<uint64_t> sum{0};
  ParallelFor(128, 4, 1, [&](size_t begin, size_t end, int) {
    uint64_t local = 0;
    for (size_t i = begin; i < end; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });

  const ProfSnapshot snap = CaptureProfSnapshot();
  EXPECT_EQ(sum.load(), 128u * 127u / 2u);
  EXPECT_GE(snap.pool_loops, 1u);
  EXPECT_GE(snap.pool_blocks, 128u);
  EXPECT_FALSE(snap.workers.empty());
  uint64_t worker_blocks = 0;
  for (const auto& w : snap.workers) {
    EXPECT_GE(w.worker, 0);
    EXPECT_LT(w.worker, prof::kPoolProfWorkers);
    worker_blocks += w.blocks;
  }
  EXPECT_EQ(worker_blocks, snap.pool_blocks)
      << "per-worker blocks must sum to the total (all workers fit the table)";
}

TEST_F(ProfTest, InlineParallelForFeedsTheSameAccumulators) {
  // One thread: the whole range runs inline on the caller as one block.
  ParallelFor(32, 1, 4, [](size_t, size_t, int) {});
  const ProfSnapshot snap = CaptureProfSnapshot();
  EXPECT_GE(snap.pool_loops, 1u);
  EXPECT_GE(snap.pool_blocks, 1u);
}

TEST_F(ProfTest, CaptureRusageReportsLiveFigures) {
  const ResourceUsage usage = CaptureRusage();
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(usage.max_rss_bytes, 0u);
  EXPECT_GE(usage.user_seconds + usage.sys_seconds, 0.0);
#else
  EXPECT_EQ(usage.max_rss_bytes, 0u);
#endif
}

TEST_F(ProfTest, AllocTallyCountsHeapTraffic) {
  if (!AllocTallyAvailable()) {
    GTEST_SKIP() << "operator-new replacement compiled out (sanitizer build)";
  }
  EnableAllocTally(true);
  const uint64_t bytes_before =
      prof::g_alloc_bytes.load(std::memory_order_relaxed);
  {
    // Volatile pointer defeats heap elision of an unused allocation.
    char* volatile block = new char[4096];
    delete[] block;
  }
  EnableAllocTally(false);
  const uint64_t bytes_after =
      prof::g_alloc_bytes.load(std::memory_order_relaxed);
  EXPECT_GE(bytes_after - bytes_before, 4096u);
}

TEST_F(ProfTest, PublishProfMetricsIsMonotonicAndIdempotent) {
  prof::RecordLockContention("prof_test.publish", 5000);
  prof::RecordLockContention("prof_test.publish", 7000);
  PublishProfMetrics();
  Counter* contended =
      MetricsRegistry::Global().GetCounter(kProfContendedLocks);
  Counter* wait_us = MetricsRegistry::Global().GetCounter(kProfLockWaitUs);
  // The counters carry the published prefix of the monotonic accumulator:
  // after a publish they are at least the accumulator total, and publishing
  // again with no new events must not double-count.
  EXPECT_GE(contended->Value(),
            prof::g_lock_prof.contended_total.load(std::memory_order_relaxed));
  const uint64_t contended_once = contended->Value();
  const uint64_t wait_once = wait_us->Value();
  PublishProfMetrics();
  EXPECT_EQ(contended->Value(), contended_once);
  EXPECT_EQ(wait_us->Value(), wait_once);
}

TEST_F(ProfTest, ResetZeroesEveryAccumulator) {
  prof::RecordLockContention("prof_test.reset", 100);
  prof::RecordPoolBlock(0, 10, 20);
  prof::RecordPoolLoop(2, 100, 50);
  ResetProfCounters();
  const ProfSnapshot snap = CaptureProfSnapshot();
  EXPECT_EQ(snap.contended_locks, 0u);
  EXPECT_EQ(snap.lock_wait_ns, 0u);
  EXPECT_EQ(snap.pool_loops, 0u);
  EXPECT_EQ(snap.pool_blocks, 0u);
  EXPECT_EQ(snap.pool_busy_ns, 0u);
  for (const auto& entry : snap.locks) EXPECT_EQ(entry.contended, 0u);
}

TEST_F(ProfTest, ProfReportJsonCarriesTheSchemaAndSections) {
  prof::RecordLockContention("prof_test.report", 1234);
  const std::string json = ProfReportJson();
  EXPECT_NE(json.find("\"schema\": \"homets.prof_report\""),
            std::string::npos)
      << json;
  for (const char* key :
       {"\"profiler_enabled\"", "\"rusage\"", "\"locks\"", "\"pool\"",
        "\"alloc\"", "\"max_rss_bytes\"", "\"contended\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("prof_test.report"), std::string::npos) << json;
}

TEST_F(ProfTest, StageTimerRecordsResourcesIntoTheManifest) {
  RunManifestBuilder builder;
  builder.SetTool("prof_test");
  builder.SetThreads(1, 1);
  {
    StageTimer timer("burn", &builder);
    // Burn enough CPU for getrusage ticks (1-4 ms) to resolve.
    volatile double x = 1.0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
    while (std::chrono::steady_clock::now() < deadline) x = x * 1.0000001;
    timer.set_units(7);
  }
  const std::string json = builder.ToJson();
  EXPECT_NE(json.find("\"stage\": \"burn\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"resources\""), std::string::npos) << json;
  for (const char* key :
       {"\"cpu_user_seconds\"", "\"cpu_sys_seconds\"", "\"cpu_seconds\"",
        "\"max_rss_bytes\"", "\"minor_faults\"", "\"major_faults\"",
        "\"alloc_bytes\"", "\"parallel_efficiency\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

// An inactive span is one relaxed load: with no TraceSession installed it
// copies neither its name nor its category, however long they are.
TEST_F(ProfTest, InactiveSpansDoNotAllocate) {
  if (!AllocTallyAvailable()) {
    GTEST_SKIP() << "the alloc tally is compiled out under sanitizers";
  }
  ASSERT_EQ(GlobalTraceSession(), nullptr);
  EnableAllocTally(true);
  const uint64_t before = prof::g_alloc_bytes.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span("similarity_engine.pairwise", "a_category_past_sso_size");
  }
  const uint64_t after = prof::g_alloc_bytes.load(std::memory_order_relaxed);
  EnableAllocTally(false);
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace homets::obs
