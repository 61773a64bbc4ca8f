#ifndef HOMETS_COMMON_THREAD_ANNOTATIONS_H_
#define HOMETS_COMMON_THREAD_ANNOTATIONS_H_

// Clang thread-safety-analysis attribute macros (HOMETS_GUARDED_BY and
// friends). Under Clang with -Wthread-safety these let the compiler prove
// lock discipline at build time: every read/write of an annotated member is
// checked against the locks the enclosing function actually holds, and a
// violation is a hard error in HOMETS_WERROR builds. Under every other
// compiler (the container's GCC included) they expand to nothing, so
// annotated code stays portable.
//
// The vocabulary mirrors the Clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) with a HOMETS_
// prefix. Conventions used in this repo (see DESIGN.md §7):
//   - every mutex-protected member is HOMETS_GUARDED_BY(mu_);
//   - private helpers that assume the lock is held take HOMETS_REQUIRES(mu_);
//   - public entry points that take the lock are HOMETS_EXCLUDES(mu_) so
//     self-deadlock through re-entry is caught;
//   - no macro opts a function out of the analysis.
// Prefer homets::Mutex / homets::MutexLock (common/mutex.h) over raw
// std::mutex: the standard mutex carries no capability annotation, so the
// analysis can only see locks taken through the annotated wrapper.

#if defined(__clang__)
#define HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op off Clang
#endif

/// Declares a class to be a lockable capability, e.g.
/// `class HOMETS_CAPABILITY("mutex") Mutex { … };`.
#define HOMETS_CAPABILITY(x) \
  HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Declares an RAII class that acquires a capability in its constructor and
/// releases it in its destructor (MutexLock).
#define HOMETS_SCOPED_CAPABILITY \
  HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define HOMETS_GUARDED_BY(x) \
  HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// Pointer member whose pointee is protected by the given capability.
#define HOMETS_PT_GUARDED_BY(x) \
  HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// The function may only be called while holding the listed capabilities.
#define HOMETS_REQUIRES(...) \
  HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

/// The function acquires the listed capabilities and holds them on return.
#define HOMETS_ACQUIRE(...) \
  HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

/// The function releases the listed capabilities (held on entry).
#define HOMETS_RELEASE(...) \
  HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

/// The caller must NOT hold the listed capabilities (deadlock guard for
/// public entry points that take the lock themselves).
#define HOMETS_EXCLUDES(...) \
  HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// Documents lock-ordering: this capability is acquired after the listed
/// ones.
#define HOMETS_ACQUIRED_AFTER(...) \
  HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(acquired_after(__VA_ARGS__))

/// Documents lock-ordering: this capability is acquired before the listed
/// ones.
#define HOMETS_ACQUIRED_BEFORE(...) \
  HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(acquired_before(__VA_ARGS__))

/// The function returns a reference to the named capability.
#define HOMETS_RETURN_CAPABILITY(x) \
  HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Runtime assertion that the capability is held (for code the analysis
/// cannot follow, e.g. callbacks invoked under a caller's lock).
#define HOMETS_ASSERT_CAPABILITY(x) \
  HOMETS_THREAD_ANNOTATION_ATTRIBUTE_(assert_capability(x))

#endif  // HOMETS_COMMON_THREAD_ANNOTATIONS_H_
