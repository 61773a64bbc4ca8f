#ifndef HOMETS_OBS_METRICS_H_
#define HOMETS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/thread_annotations.h"

// Process-wide metrics: named monotonic counters. Durations are not
// metrics: stages are timed by obs::StageTimer (obs/trace.h).
//
// The hot path (Increment) is lock-free — one relaxed atomic add — so
// instrumentation is safe from any thread, including TSan-checked worker
// pools. Registration (GetCounter) takes a mutex but returns a pointer that
// stays valid and hot for the registry's lifetime; call sites cache it in a
// function-local static. Reading (Snapshot/ExportJson) locks only the name
// map, never the increments: values are sampled with relaxed loads, so a
// snapshot is a consistent-enough view for telemetry, not a linearization
// point.
//
// This layer links nothing but the standard library, so common/failpoint.cc
// can count its trips here (the one waived common -> obs edge, DESIGN.md
// §14); the only common/ headers it includes (mutex.h, thread_annotations.h)
// are header-only and standard-library-only themselves.
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

/// \brief Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
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

  MetricsSnapshot Snapshot() const HOMETS_EXCLUDES(mu_);

  /// Flat JSON object, counter name → value.
  std::string ExportJson() const;

  /// Zeroes every metric's value. Registered pointers stay valid.
  void Reset() HOMETS_EXCLUDES(mu_);

 private:
  /// Guards the name map only — never the counter values, which are atomics
  /// reached through pointers handed out under the lock.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      HOMETS_GUARDED_BY(mu_);
};

}  // namespace homets::obs

#endif  // HOMETS_OBS_METRICS_H_
