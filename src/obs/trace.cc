#include "obs/trace.h"

#include <sys/resource.h>

#include <ctime>

#include "obs/json_encoder.h"
#include "obs/report.h"

// Library stages read getrusage(RUSAGE_THREAD), which is Linux-specific.
namespace homets::obs {

namespace {

std::atomic<TraceSession*> g_session{nullptr};
std::atomic<RunManifestBuilder*> g_collector{nullptr};
// True while a session or a collector is installed: the one load an
// inactive stage makes.
std::atomic<bool> g_any_sink{false};

// The innermost active stage open on this thread; each stage links to the
// one it opened under. Only the owning thread touches it.
thread_local StageTimer* tls_innermost = nullptr;

// Process-unique span ids, 1-based so 0 means "no span open".
std::atomic<uint64_t> g_next_span_id{0};

void UpdateAnySink() {
  g_any_sink.store(g_session.load(std::memory_order_relaxed) != nullptr ||
                       g_collector.load(std::memory_order_relaxed) != nullptr,
                   std::memory_order_release);
}

uint64_t DeltaSince(uint64_t before, uint64_t after) {
  return after > before ? after - before : 0;
}

double Seconds(const struct timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

StageResources Rusage(int who) {
  StageResources out;
  struct rusage ru = {};
  if (getrusage(who, &ru) != 0) return out;
  out.cpu_user_seconds = Seconds(ru.ru_utime);
  out.cpu_sys_seconds = Seconds(ru.ru_stime);
  out.max_rss_bytes = static_cast<uint64_t>(ru.ru_maxrss) * 1024;  // KiB
  out.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
  out.major_faults = static_cast<uint64_t>(ru.ru_majflt);
  return out;
}

// The calling thread's CPU time and faults. getrusage moves a running
// thread's figures on only at scheduler ticks (a 0.8 ms spin can read as
// 7 us), so the CPU time comes from the thread's CPU clock, getrusage gives
// its system part and the faults, and user time is the rest.
StageResources ThreadRusage() {
  StageResources out = Rusage(RUSAGE_THREAD);
  struct timespec cpu = {};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
  out.cpu_user_seconds = static_cast<double>(cpu.tv_sec) +
                         static_cast<double>(cpu.tv_nsec) / 1e9 -
                         out.cpu_sys_seconds;
  return out;
}

}  // namespace

void TraceSession::Add(TraceEvent event) {
  MutexLock lock(&mu_);
  events_.push_back(std::move(event));
}

size_t TraceSession::size() const {
  MutexLock lock(&mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceSession::Events() const {
  MutexLock lock(&mu_);
  return events_;
}

std::string TraceSession::ToChromeJson() const {
  JsonEncoder out;
  out.BeginObject().Key("traceEvents").BeginArray();
  for (const TraceEvent& e : Events()) {
    out.BeginObject()
        .Member("name", e.name)
        .Member("cat", "homets")
        .Member("ph", "X")
        .Member("ts", e.ts_us)
        .Member("dur", e.dur_us)
        .Member("pid", 1)
        .Member("tid", e.tid)
        .Key("args")
        .BeginObject()
        .Member("depth", e.depth)
        .Member("span_id", e.span_id)
        .EndObject()
        .EndObject();
  }
  out.EndArray().EndObject();
  return out.str();
}

void InstallGlobalTraceSession(TraceSession* session) {
  g_session.store(session, std::memory_order_release);
  UpdateAnySink();
}

void InstallStageCollector(RunManifestBuilder* collector) {
  g_collector.store(collector, std::memory_order_release);
  UpdateAnySink();
}

TraceSession* GlobalTraceSession() {
  return g_session.load(std::memory_order_acquire);
}

uint32_t CurrentThreadTraceId() {
  static std::atomic<uint32_t> next_id{0};
  thread_local const uint32_t id =
      next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

uint64_t CurrentSpanId() {
  return tls_innermost == nullptr ? 0 : tls_innermost->id_;
}

StageResources StageResources::Since(const StageResources& before) const {
  return {cpu_user_seconds - before.cpu_user_seconds,
          cpu_sys_seconds - before.cpu_sys_seconds, max_rss_bytes,
          DeltaSince(before.minor_faults, minor_faults),
          DeltaSince(before.major_faults, major_faults)};
}

StageResources& StageResources::operator+=(const StageResources& other) {
  cpu_user_seconds += other.cpu_user_seconds;
  cpu_sys_seconds += other.cpu_sys_seconds;
  minor_faults += other.minor_faults;
  major_faults += other.major_faults;
  return *this;
}

StageResources CaptureRusage() { return Rusage(RUSAGE_SELF); }

std::optional<double> StageRecord::parallel_efficiency(
    int threads_used) const {
  constexpr double kEfficiencyWallFloorSeconds = 0.01;
  if (threads_used <= 0 || seconds < kEfficiencyWallFloorSeconds) {
    return std::nullopt;
  }
  return resources.cpu_seconds() / (seconds * threads_used);
}

StageTimer::StageTimer(std::string_view stage, RunManifestBuilder* manifest)
    : manifest_(manifest) {
  if (manifest_ == nullptr && !g_any_sink.load(std::memory_order_relaxed)) {
    return;
  }
  session_ = GlobalTraceSession();
  collector_ = g_collector.load(std::memory_order_acquire);
  if (!active()) return;
  record_.stage = stage;
  parent_ = tls_innermost;
  tls_innermost = this;
  if (session_ != nullptr) {
    id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  if (manifest_ != nullptr) {
    metrics_before_ = MetricsRegistry::Global().Snapshot();
    usage_before_ = CaptureRusage();
  } else if (collector_ != nullptr) {
    usage_before_ = ThreadRusage();
  }
  start_ = std::chrono::steady_clock::now();
}

StageTimer::~StageTimer() {
  if (!active()) return;
  const auto end = std::chrono::steady_clock::now();
  tls_innermost = parent_;
  const double seconds = std::chrono::duration<double>(end - start_).count();
  StageResources spent;  // on this thread; read for collector stages only
  if (manifest_ == nullptr && collector_ != nullptr) {
    spent = ThreadRusage().Since(usage_before_);
    collector_->AddStageCall(record_.stage,
                             StageSum{1, seconds, seconds - nested_seconds_,
                                      spent.Since(nested_)});
  }
  if (parent_ != nullptr) {
    parent_->nested_seconds_ += seconds;
    parent_->nested_ += spent;
  }
  if (session_ != nullptr) {
    TraceEvent event;
    event.name = record_.stage;
    event.ts_us = session_->SinceStartUs(start_);
    event.dur_us = session_->SinceStartUs(end) - event.ts_us;
    event.tid = CurrentThreadTraceId();
    for (auto* p = parent_; p != nullptr; p = p->parent_) ++event.depth;
    event.span_id = id_;
    session_->Add(std::move(event));
  }
  if (manifest_ == nullptr) return;
  record_.seconds = seconds;
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : after.counters) {
    const auto it = metrics_before_.counters.find(name);
    const uint64_t delta = DeltaSince(
        it == metrics_before_.counters.end() ? 0 : it->second, value);
    if (delta > 0) record_.metric_deltas[name] = delta;
  }
  record_.resources = CaptureRusage().Since(usage_before_);
  manifest_->AddStage(std::move(record_));
}

}  // namespace homets::obs
