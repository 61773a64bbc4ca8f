#ifndef HOMETS_COMMON_MUTEX_H_
#define HOMETS_COMMON_MUTEX_H_

#include <mutex>

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
// homets_common in the link graph but may include this freely.
namespace homets {

class HOMETS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() HOMETS_ACQUIRE() { mu_.lock(); }
  void Unlock() HOMETS_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
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
