#ifndef HOMETS_OBS_METRICS_H_
#define HOMETS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

// Process-wide metrics: named counters and fixed-bucket histograms.
//
// The hot path (Increment/Observe) is lock-free — plain relaxed atomics —
// so instrumentation is safe from any thread, including TSan-checked worker
// pools, and cheap enough for per-block accounting inside ParallelFor.
// Registration (GetCounter & co.) takes a mutex but returns a pointer that
// stays valid and hot for the registry's lifetime; call sites cache it in a
// function-local static. Reading (Snapshot/ExportJson) locks only the name maps,
// never the increments: values are sampled with relaxed loads, so a snapshot
// is a consistent-enough view for telemetry, not a linearization point.
//
// This layer sits below homets_common on purpose (common/thread_pool.h is
// instrumented with it), so it links nothing but the standard library; the
// only common/ headers it includes (mutex.h, thread_annotations.h) are
// header-only and standard-library-only themselves.
namespace homets::obs {

/// \brief Monotonic event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Fixed-bucket histogram with Prometheus-style `le` (inclusive upper
/// bound) buckets plus an overflow bucket, a total count, and a value sum.
///
/// Bucket bounds are fixed at registration; Observe is a binary search plus
/// three relaxed atomic adds. The sum accumulates with a CAS loop, so its
/// exact value is scheduling-dependent under concurrency — fine for
/// telemetry, not for anything bit-exact.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last is overflow).
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> bounds_;  ///< ascending inclusive upper bounds
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential bucket bounds: {start, start·factor, …}, `count` entries.
std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count);

/// Default microsecond latency bounds, 1 µs … 5 s in a 1-2-5 series.
const std::vector<double>& LatencyBucketsUs();

/// \brief Point-in-time copy of one histogram.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;  ///< bounds.size() + 1, last is overflow
  uint64_t count = 0;
  double sum = 0.0;
};

/// Percentile estimate from cumulative bucket counts, Prometheus
/// histogram_quantile style: linear interpolation inside the winning bucket
/// (lower edge 0 for the first), observations in the overflow bucket clamp
/// to the highest finite bound. `quantile` is in [0, 1]; returns 0 for an
/// empty histogram.
double HistogramPercentile(const HistogramSnapshot& hist, double quantile);

/// \brief Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// \brief Thread-safe name → metric registry.
///
/// `Global()` is the process-wide instance every instrumentation site uses;
/// independent instances exist only so tests can run in isolation.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Returns the counter registered under `name`, creating it on first use.
  /// The pointer is stable for the registry's lifetime.
  Counter* GetCounter(std::string_view name) HOMETS_EXCLUDES(mu_);
  /// First registration fixes the bucket bounds; later calls with the same
  /// name return the existing histogram regardless of `bounds`. Empty bounds
  /// mean LatencyBucketsUs().
  Histogram* GetHistogram(std::string_view name,
                          std::vector<double> bounds = {})
      HOMETS_EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const HOMETS_EXCLUDES(mu_);

  /// Flat JSON object: counters as numbers, histograms as
  /// {"count", "sum", "buckets": [{"le", "count"}, …]} objects.
  std::string ExportJson() const;

  /// Zeroes every metric's value. Registered pointers stay valid.
  void Reset() HOMETS_EXCLUDES(mu_);

 private:
  /// Guards the name maps only — never the metric values, which are atomics
  /// reached through pointers handed out under the lock.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      HOMETS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      HOMETS_GUARDED_BY(mu_);
};

}  // namespace homets::obs

#endif  // HOMETS_OBS_METRICS_H_
