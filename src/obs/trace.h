#ifndef HOMETS_OBS_TRACE_H_
#define HOMETS_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

// The one stage clock, StageTimer, and the sinks it reports to: a
// TraceSession of spans that serializes to Chrome trace_event JSON (open a
// run in about:tracing or https://ui.perfetto.dev), and run manifests
// (obs/report.h), which take a stage's record or its per-name sums. A stage that opens and
// closes while another is open on the same thread is its child: the span
// renders nested (the Chrome "X" complete-event convention) and carries its
// depth, and the parent's self time leaves the child out. With no sink
// installed and no manifest, a StageTimer is a single relaxed atomic load —
// cheap enough to leave compiled in everywhere.
namespace homets::obs {

/// \brief One completed span ("ph": "X" in the Chrome trace format).
struct TraceEvent {
  std::string name;
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
/// and uninstall after it finishes — stages capture the session pointer at
/// construction, so the session must outlive every stage opened while it
/// was installed.
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

/// \brief OS resource figures: running totals from CaptureRusage, what a
/// stage spent in a StageRecord or StageSum. max_rss_bytes is always the
/// process peak so far (RSS peaks never come back down).
struct StageResources {
  double cpu_user_seconds = 0.0;
  double cpu_sys_seconds = 0.0;
  uint64_t max_rss_bytes = 0;
  uint64_t minor_faults = 0;
  uint64_t major_faults = 0;

  double cpu_seconds() const { return cpu_user_seconds + cpu_sys_seconds; }
  /// What was spent from the earlier reading `before` to this one.
  StageResources Since(const StageResources& before) const;
  StageResources& operator+=(const StageResources& other);
};

/// \brief The process's getrusage(RUSAGE_SELF) totals.
StageResources CaptureRusage();

/// \brief What one manifest stage did: the run manifest's stage entry and
/// the BENCH_pipeline.json entry are both printed from it.
struct StageRecord {
  std::string stage;
  double seconds = 0.0;  ///< wall time
  uint64_t units = 0;
  /// Counters that grew during the stage, by how much.
  std::map<std::string, uint64_t> metric_deltas;
  StageResources resources;

  /// cpu_seconds / (seconds * threads_used), or nothing when no threads are
  /// recorded or the stage ran under 10 ms: getrusage CPU time advances in
  /// scheduler ticks (1-4 ms), so on shorter stages the ratio flips between
  /// 0 and >1 on tick luck and would poison the bench-compare gate.
  std::optional<double> parallel_efficiency(int threads_used) const;
};

/// \brief One stage name's calls, summed over gateways and threads. Self
/// figures leave out the stages nested in it on the same thread, so the
/// self figures of all names add up with nothing counted twice. CPU and
/// faults are the running thread's own (DESIGN.md §6).
struct StageSum {
  uint64_t calls = 0;
  double seconds = 0.0;  ///< wall, nested stages included
  double self_seconds = 0.0;
  StageResources self;  ///< CPU and faults; no RSS
};

class RunManifestBuilder;

/// \brief Installs `collector` (not owned) process-wide as the manifest that
/// sums every library stage closing while it is installed, by stage name
/// (RunManifestBuilder::AddStageCall); nullptr uninstalls. The lifetime
/// rule of InstallGlobalTraceSession holds.
void InstallStageCollector(RunManifestBuilder* collector);

/// \brief The one stage clock, RAII from construction to destruction. It
/// is a span under an installed TraceSession (code inside sees its id, see
/// CurrentSpanId). With a manifest it reads the metrics registry and the
/// process getrusage at both edges and appends one StageRecord: the CLI's
/// whole-command stages, which span every thread. Without one it adds a
/// call to the installed collector: the library's stages, on the thread
/// that runs them. With neither sink nor manifest it is one relaxed
/// atomic load: no clock read, no copy of the name.
class StageTimer {
 public:
  explicit StageTimer(std::string_view stage,
                      RunManifestBuilder* manifest = nullptr);
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer();

  /// The stage's unit count, once known (recorded for manifest stages).
  void set_units(uint64_t units) { record_.units = units; }

 private:
  friend uint64_t CurrentSpanId();

  bool active() const {
    return manifest_ != nullptr || session_ != nullptr || collector_ != nullptr;
  }

  TraceSession* session_ = nullptr;  ///< sinks captured at construction
  RunManifestBuilder* collector_ = nullptr;
  RunManifestBuilder* manifest_;
  StageTimer* parent_ = nullptr;  ///< the active stage this one opened in
  uint64_t id_ = 0;  ///< process-unique span id, assigned under a session
  std::chrono::steady_clock::time_point start_;
  StageResources usage_before_;  ///< the process's, or the thread's
  double nested_seconds_ = 0.0;  ///< what closed child stages spent
  StageResources nested_;
  StageRecord record_;  ///< the name, and for a manifest stage the record
  MetricsSnapshot metrics_before_;
};

}  // namespace homets::obs

#endif  // HOMETS_OBS_TRACE_H_
