#ifndef HOMETS_OBS_PROF_H_
#define HOMETS_OBS_PROF_H_

#include <cstdint>
#include <string>
#include <vector>

// Execution profiler: the reporting side of the common/prof_hooks.h
// accumulators.
//
// The split matters for layering and for re-entrancy: the hooks (written by
// common/mutex.h and common/thread_pool.h hot paths) are lock-free atomics
// that know nothing about the metrics registry, because registry calls lock
// the very Mutex being profiled. This module reads the accumulators from
// cold paths only — stage boundaries and teardown — and turns them
// into homets.prof.* metrics, manifest fields, and the --prof-out report.
//
// Enablement surface:
//   - EnableProfiler(true): gates the mutex/pool instrumentation (CLI
//     --prof, perf_pipeline --prof, perf_microbench --prof, tests).
//   - EnableAllocTally(true): additionally turns on the global operator-new
//     byte tally. The replacement operators are defined in prof.cc and reach
//     a binary only by linking it; AllocTallyAvailable() says whether they
//     did (they are compiled out under ASan/TSan, whose runtimes own the
//     allocator).
namespace homets::obs {

/// Point-in-time getrusage(RUSAGE_SELF) reading. Zeroes on platforms
/// without <sys/resource.h>.
struct ResourceUsage {
  double user_seconds = 0.0;
  double sys_seconds = 0.0;
  uint64_t max_rss_bytes = 0;  ///< peak RSS of the process so far
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;
};

ResourceUsage CaptureRusage();

void EnableProfiler(bool on);
bool ProfilerEnabled();
void EnableAllocTally(bool on);
bool AllocTallyAvailable();

/// Point-in-time copy of every profiler accumulator.
struct ProfSnapshot {
  struct LockEntry {
    std::string name;
    uint64_t contended = 0;
    uint64_t wait_ns = 0;
  };
  struct WorkerEntry {
    int worker = 0;
    uint64_t blocks = 0;
    uint64_t run_ns = 0;
    uint64_t queue_wait_ns = 0;
  };

  uint64_t contended_locks = 0;
  uint64_t lock_wait_ns = 0;
  std::vector<LockEntry> locks;  ///< named mutexes with contention, if any

  uint64_t pool_loops = 0;
  uint64_t pool_blocks = 0;
  uint64_t pool_busy_ns = 0;
  uint64_t pool_idle_ns = 0;
  uint64_t pool_queue_wait_ns = 0;
  std::vector<WorkerEntry> workers;  ///< workers that ran at least one block

  uint64_t alloc_count = 0;
  uint64_t alloc_bytes = 0;

  ResourceUsage rusage;
};

ProfSnapshot CaptureProfSnapshot();

/// Zeroes every prof accumulator (named-mutex slots keep their names).
/// Test-only: production totals are monotonic by design.
void ResetProfCounters();

/// Folds the accumulator totals into the homets.prof.* registry counters by
/// delta-increment, so StageTimer's before/after counter diffs attribute
/// lock waits and allocation volume to stages. Cold-path only; single
/// logical publisher (stage boundaries + teardown) by construction.
void PublishProfMetrics();

/// The full ProfSnapshot as a JSON document (--prof-out payload).
std::string ProfReportJson();

}  // namespace homets::obs

#endif  // HOMETS_OBS_PROF_H_
