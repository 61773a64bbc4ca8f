#ifndef HOMETS_COMMON_MUTEX_H_
#define HOMETS_COMMON_MUTEX_H_

#include <chrono>
#include <cstdint>
#include <mutex>

#include "common/prof_hooks.h"
#include "common/thread_annotations.h"

// Annotated mutex wrapper for Clang thread-safety analysis.
//
// std::mutex carries no capability annotation, so -Wthread-safety cannot see
// locks taken through std::lock_guard — HOMETS_GUARDED_BY members would be
// flagged on every access even when correctly locked. homets::Mutex is a
// zero-overhead wrapper (one std::mutex, all methods inline) whose
// Lock/Unlock are annotated as acquire/release, and homets::MutexLock is the
// annotated std::lock_guard equivalent. The wrapped std::mutex is not
// exposed, so every lock the tree takes through this type is one the
// analysis can see.
//
// Header-only and standard-library-only on purpose: obs/ sits below
// homets_common in the link graph but may include this freely (which is also
// why the contention instrumentation below writes into common/prof_hooks.h
// accumulators instead of obs metrics — the registry guards itself with this
// very Mutex, so a registry call from Lock would re-enter).
namespace homets {

class HOMETS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Names this mutex in the lock-contention profile (obs/prof). `name` must
  /// have static storage duration — pass a string literal.
  explicit Mutex(const char* name) : name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // With the profiler off, Lock costs the plain mu_.lock() plus one relaxed
  // atomic load. On, the uncontended path is a bare try_lock; only an
  // acquisition that actually has to block reads the clock and records.
  void Lock() HOMETS_ACQUIRE() {
    if (!prof::ProfilerEnabled()) {
      mu_.lock();
      return;
    }
    LockProfiled();
  }
  void Unlock() HOMETS_RELEASE() { mu_.unlock(); }

 private:
  // Cold path, kept out of line of the inline Lock: time the blocking
  // acquisition and record it against this mutex's name (if any).
  void LockProfiled() {
    if (mu_.try_lock()) return;
    const auto start = std::chrono::steady_clock::now();
    mu_.lock();
    const auto waited = std::chrono::steady_clock::now() - start;
    prof::RecordLockContention(
        name_, static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
                       .count()));
  }

  std::mutex mu_;
  const char* name_ = nullptr;
};

/// \brief Annotated scoped lock: std::lock_guard for homets::Mutex.
class HOMETS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) HOMETS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() HOMETS_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace homets

#endif  // HOMETS_COMMON_MUTEX_H_
