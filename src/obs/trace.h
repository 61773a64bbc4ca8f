#ifndef HOMETS_OBS_TRACE_H_
#define HOMETS_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

// Structured run tracing: RAII spans collected into a TraceSession that
// serializes to Chrome trace_event JSON, so a run opens directly in
// about:tracing or https://ui.perfetto.dev.
//
// Spans nest naturally: a span that opens and closes while another span on
// the same thread is open renders as its child (the Chrome "X" complete-event
// convention), and each event also carries its explicit nesting depth. When
// no session is installed, ScopedSpan without a sink is a single relaxed
// atomic load — cheap enough to leave instrumentation compiled in everywhere.
namespace homets::obs {

/// \brief One completed span ("ph": "X" in the Chrome trace format).
struct TraceEvent {
  std::string name;
  std::string category;
  int64_t ts_us = 0;   ///< span start, µs since the session started
  int64_t dur_us = 0;  ///< span duration in µs
  uint32_t tid = 0;    ///< small dense thread id (see CurrentThreadTraceId)
  uint32_t depth = 0;  ///< open spans on this thread above this one
  uint64_t span_id = 0;  ///< process-unique id (see CurrentSpanId); 0 = none
};

/// \brief Collects spans for one run. Append is thread-safe.
class TraceSession {
 public:
  TraceSession() : start_(std::chrono::steady_clock::now()) {}
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void Add(TraceEvent event) HOMETS_EXCLUDES(mu_);

  size_t size() const HOMETS_EXCLUDES(mu_);
  std::vector<TraceEvent> Events() const HOMETS_EXCLUDES(mu_);

  /// µs from session start to `t` on the session's steady clock.
  int64_t SinceStartUs(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - start_)
        .count();
  }

  /// Chrome trace_event JSON (object form: {"traceEvents": [...]}).
  std::string ToChromeJson() const;

 private:
  std::chrono::steady_clock::time_point start_;
  mutable Mutex mu_;
  std::vector<TraceEvent> events_ HOMETS_GUARDED_BY(mu_);
};

/// \brief Installs `session` (not owned) as the process-wide span
/// destination; nullptr uninstalls. Install before the traced work starts
/// and uninstall after it finishes — spans capture the session pointer at
/// construction, so the session must outlive every span opened while it was
/// installed.
void InstallGlobalTraceSession(TraceSession* session);
TraceSession* GlobalTraceSession();

/// \brief Small dense id for the calling thread (0, 1, 2, … in first-use
/// order), stable for the thread's lifetime — the "tid" spans are tagged
/// with, chosen over the opaque standard thread id so Perfetto rows sort
/// sensibly.
uint32_t CurrentThreadTraceId();

/// \brief Id of the innermost span currently open on the calling thread, or
/// 0 when none is. Spans receive a process-unique 1-based id whenever a
/// TraceSession is installed; the structured logger stamps this onto every
/// record, so a log line written inside the `mine_motifs` stage carries the
/// exact span it belongs to and the two artifacts (JSON-lines log, Chrome
/// trace) join on `span_id`.
uint64_t CurrentSpanId();

/// \brief RAII span: measures from construction to destruction and reports
/// to the installed TraceSession (if any). Without one, construction is one
/// atomic load: no clock reads, and the name and category are not copied.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name,
                      std::string_view category = "homets");
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

 private:
  TraceSession* session_;  ///< captured once at construction
  std::string name_;       ///< copied only while a session is installed
  std::string category_;
  std::chrono::steady_clock::time_point start_;
  uint32_t depth_ = 0;
  uint64_t id_ = 0;  ///< process-unique span id, assigned when active
};

}  // namespace homets::obs

#endif  // HOMETS_OBS_TRACE_H_
