#include "obs/prof.h"

#include <cstdlib>
#include <cstring>
#include <new>

#include "common/prof_hooks.h"
#include "obs/json_encoder.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define HOMETS_PROF_HAS_RUSAGE 1
#else
#define HOMETS_PROF_HAS_RUSAGE 0
#endif

// The global operator-new replacement (the byte tally) is compiled out under
// ASan/TSan: their runtimes interpose the allocator themselves and a second
// replacement would fight over interception order.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HOMETS_PROF_REPLACE_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HOMETS_PROF_REPLACE_NEW 0
#else
#define HOMETS_PROF_REPLACE_NEW 1
#endif
#else
#define HOMETS_PROF_REPLACE_NEW 1
#endif

#if HOMETS_PROF_REPLACE_NEW
// Minimal malloc-backed replacement set. Reaches a binary only when it links
// prof.cc (every homets_obs consumer); costs one relaxed load per allocation
// until EnableAllocTally(true). Aligned-new overloads are intentionally left
// to the library defaults — they pair internally and stay untallied.
void* operator new(std::size_t size) {
  homets::prof::NoteAlloc(size);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  homets::prof::NoteAlloc(size);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  homets::prof::NoteAlloc(size);
  return std::malloc(size != 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  homets::prof::NoteAlloc(size);
  return std::malloc(size != 0 ? size : 1);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
#endif  // HOMETS_PROF_REPLACE_NEW

namespace homets::obs {
namespace {

/// Delta-increments `name` up to `total`: the counter carries the published
/// prefix of a monotonic accumulator, so stage-boundary snapshots see the
/// per-stage delta.
void PublishCounter(std::string_view name, uint64_t total) {
  auto& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter(name);
  const uint64_t published = counter->Value();
  if (total > published) counter->Increment(total - published);
}

}  // namespace

ResourceUsage CaptureRusage() {
  ResourceUsage out;
#if HOMETS_PROF_HAS_RUSAGE
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  if (getrusage(RUSAGE_SELF, &ru) != 0) return out;
  out.user_seconds = static_cast<double>(ru.ru_utime.tv_sec) +
                     static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  out.sys_seconds = static_cast<double>(ru.ru_stime.tv_sec) +
                    static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
#if defined(__APPLE__)
  out.max_rss_bytes = static_cast<uint64_t>(ru.ru_maxrss);
#else
  // Linux reports ru_maxrss in kilobytes.
  out.max_rss_bytes = static_cast<uint64_t>(ru.ru_maxrss) * 1024;
#endif
  out.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
  out.major_faults = static_cast<uint64_t>(ru.ru_majflt);
#endif
  return out;
}

void EnableProfiler(bool on) {
  prof::g_enabled.store(on, std::memory_order_relaxed);
}

bool ProfilerEnabled() { return prof::ProfilerEnabled(); }

void EnableAllocTally(bool on) {
  prof::g_alloc_tally_enabled.store(on, std::memory_order_relaxed);
}

bool AllocTallyAvailable() { return HOMETS_PROF_REPLACE_NEW != 0; }

ProfSnapshot CaptureProfSnapshot() {
  ProfSnapshot out;
  const auto& locks = prof::g_lock_prof;
  out.contended_locks = locks.contended_total.load(std::memory_order_relaxed);
  out.lock_wait_ns = locks.wait_ns_total.load(std::memory_order_relaxed);
  for (const auto& slot : locks.slots) {
    const char* name = slot.name.load(std::memory_order_acquire);
    if (name == nullptr) continue;
    ProfSnapshot::LockEntry entry;
    entry.name = name;
    entry.contended = slot.contended.load(std::memory_order_relaxed);
    entry.wait_ns = slot.wait_ns.load(std::memory_order_relaxed);
    out.locks.push_back(std::move(entry));
  }
  const auto& pool = prof::g_pool_prof;
  out.pool_loops = pool.loops.load(std::memory_order_relaxed);
  out.pool_blocks = pool.blocks_total.load(std::memory_order_relaxed);
  out.pool_busy_ns = pool.busy_ns_total.load(std::memory_order_relaxed);
  out.pool_idle_ns = pool.idle_ns_total.load(std::memory_order_relaxed);
  out.pool_queue_wait_ns =
      pool.queue_wait_ns_total.load(std::memory_order_relaxed);
  for (int w = 0; w < prof::kPoolProfWorkers; ++w) {
    const auto& slot = pool.workers[w];
    const uint64_t blocks = slot.blocks.load(std::memory_order_relaxed);
    if (blocks == 0) continue;
    ProfSnapshot::WorkerEntry entry;
    entry.worker = w;
    entry.blocks = blocks;
    entry.run_ns = slot.run_ns.load(std::memory_order_relaxed);
    entry.queue_wait_ns = slot.queue_wait_ns.load(std::memory_order_relaxed);
    out.workers.push_back(entry);
  }
  out.alloc_count = prof::g_alloc_count.load(std::memory_order_relaxed);
  out.alloc_bytes = prof::g_alloc_bytes.load(std::memory_order_relaxed);
  out.rusage = CaptureRusage();
  return out;
}

void ResetProfCounters() {
  auto& locks = prof::g_lock_prof;
  locks.contended_total.store(0, std::memory_order_relaxed);
  locks.wait_ns_total.store(0, std::memory_order_relaxed);
  for (auto& slot : locks.slots) {
    slot.contended.store(0, std::memory_order_relaxed);
    slot.wait_ns.store(0, std::memory_order_relaxed);
  }
  auto& pool = prof::g_pool_prof;
  pool.loops.store(0, std::memory_order_relaxed);
  pool.blocks_total.store(0, std::memory_order_relaxed);
  pool.busy_ns_total.store(0, std::memory_order_relaxed);
  pool.idle_ns_total.store(0, std::memory_order_relaxed);
  pool.queue_wait_ns_total.store(0, std::memory_order_relaxed);
  for (auto& slot : pool.workers) {
    slot.blocks.store(0, std::memory_order_relaxed);
    slot.run_ns.store(0, std::memory_order_relaxed);
    slot.queue_wait_ns.store(0, std::memory_order_relaxed);
  }
  prof::g_alloc_count.store(0, std::memory_order_relaxed);
  prof::g_alloc_bytes.store(0, std::memory_order_relaxed);
}

void PublishProfMetrics() {
  const auto& locks = prof::g_lock_prof;
  PublishCounter(kProfContendedLocks,
                 locks.contended_total.load(std::memory_order_relaxed));
  PublishCounter(kProfLockWaitUs,
                 locks.wait_ns_total.load(std::memory_order_relaxed) / 1000);
  PublishCounter(kProfAllocs,
                 prof::g_alloc_count.load(std::memory_order_relaxed));
  PublishCounter(kProfAllocBytes,
                 prof::g_alloc_bytes.load(std::memory_order_relaxed));
}

std::string ProfReportJson() {
  const ProfSnapshot snap = CaptureProfSnapshot();
  JsonEncoder out;
  out.BeginObject()
      .Member("schema", "homets.prof_report")
      .Member("schema_version", 1)
      .Member("profiler_enabled", ProfilerEnabled())
      .Key("rusage")
      .BeginObject()
      .Member("user_seconds", snap.rusage.user_seconds)
      .Member("sys_seconds", snap.rusage.sys_seconds)
      .Member("max_rss_bytes", snap.rusage.max_rss_bytes)
      .Member("minor_faults", snap.rusage.minor_faults)
      .Member("major_faults", snap.rusage.major_faults)
      .EndObject()
      .Key("locks")
      .BeginObject()
      .Member("contended", snap.contended_locks)
      .Member("wait_ns", snap.lock_wait_ns)
      .Key("by_name")
      .BeginArray();
  for (const ProfSnapshot::LockEntry& lock : snap.locks) {
    out.BeginObject()
        .Member("name", lock.name)
        .Member("contended", lock.contended)
        .Member("wait_ns", lock.wait_ns)
        .EndObject();
  }
  out.EndArray()
      .EndObject()
      .Key("pool")
      .BeginObject()
      .Member("loops", snap.pool_loops)
      .Member("blocks", snap.pool_blocks)
      .Member("busy_ns", snap.pool_busy_ns)
      .Member("idle_ns", snap.pool_idle_ns)
      .Member("queue_wait_ns", snap.pool_queue_wait_ns)
      .Key("workers")
      .BeginArray();
  for (const ProfSnapshot::WorkerEntry& worker : snap.workers) {
    out.BeginObject()
        .Member("worker", worker.worker)
        .Member("blocks", worker.blocks)
        .Member("run_ns", worker.run_ns)
        .Member("queue_wait_ns", worker.queue_wait_ns)
        .EndObject();
  }
  out.EndArray()
      .EndObject()
      .Key("alloc")
      .BeginObject()
      .Member("available", AllocTallyAvailable())
      .Member("count", snap.alloc_count)
      .Member("bytes", snap.alloc_bytes)
      .EndObject()
      .EndObject();
  return out.str();
}

}  // namespace homets::obs
