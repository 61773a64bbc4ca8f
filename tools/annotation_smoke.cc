// Annotated-build smoke: instantiates every thread-safety-annotated type in
// the tree and drives its locked paths once. Registered as the
// `annotation_smoke` ctest (label `lint`) so both compilers keep the
// annotations honest — under Clang with -Wthread-safety (-Werror in
// HOMETS_WERROR builds) a bad annotation fails the *build*; under GCC the
// macros are no-ops and this binary just proves the annotated headers still
// compile and behave.

#include <cstdio>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

// A minimal guarded structure exercising the macro vocabulary directly, so a
// macro definition that stops expanding to a valid attribute breaks here
// first, with a small reproduction.
class Guarded {
 public:
  void Set(int v) HOMETS_EXCLUDES(mu_) {
    homets::MutexLock lock(&mu_);
    SetLocked(v);
  }
  int Get() HOMETS_EXCLUDES(mu_) {
    homets::MutexLock lock(&mu_);
    return value_;
  }

 private:
  void SetLocked(int v) HOMETS_REQUIRES(mu_) { value_ = v; }

  homets::Mutex mu_;
  int value_ HOMETS_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  // Direct macro exercise, cross-thread.
  Guarded guarded;
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&guarded, t] { guarded.Set(t); });
  }
  for (auto& t : writers) t.join();
  (void)guarded.Get();

  // Annotated production types: metrics registry and trace session.
  // Private registry with throwaway names, as in tests — suppressed rather
  // than polluting the canonical catalog in obs/metric_names.h.
  homets::obs::MetricsRegistry registry;
  registry.GetCounter("homets.lint.smoke_counter")  // homets-lint: allow(metric-raw-literal)
      ->Increment();
  const homets::obs::MetricsSnapshot snapshot = registry.Snapshot();
  if (snapshot.counters.size() != 1) {
    std::fprintf(stderr, "FAIL: registry snapshot incomplete\n");
    return 1;
  }

  homets::obs::TraceSession session;
  {
    homets::obs::InstallGlobalTraceSession(&session);
    homets::obs::StageTimer stage("smoke.phase");
  }
  homets::obs::InstallGlobalTraceSession(nullptr);
  if (session.size() != 1) {
    std::fprintf(stderr, "FAIL: annotated span path did not record\n");
    return 1;
  }

  std::fprintf(stderr, "OK: annotated types compile and run under %s\n",
#if defined(__clang__)
               "Clang (-Wthread-safety active)"
#else
               "a non-Clang compiler (annotations are no-ops)"
#endif
  );
  return 0;
}
