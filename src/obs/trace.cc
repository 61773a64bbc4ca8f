#include "obs/trace.h"

#include "obs/json_encoder.h"

namespace homets::obs {

namespace {

std::atomic<TraceSession*> g_session{nullptr};

// Per-thread open-span count: children record parent_depth + 1. Plain
// thread_local — only the owning thread touches it.
thread_local uint32_t tls_open_spans = 0;

// Per-thread stack of open span ids; the top is what CurrentSpanId()
// reports, so a log line emitted inside a span carries that span's id. A
// fixed-depth array instead of a vector keeps span construction
// allocation-free; spans nested deeper than the array simply stop updating
// the innermost id (depth 16 is far beyond any real nesting in this tree).
constexpr uint32_t kMaxSpanStack = 16;
thread_local uint64_t tls_span_stack[kMaxSpanStack] = {};

// Process-unique span ids, 1-based so 0 means "no span open".
std::atomic<uint64_t> g_next_span_id{0};

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
        .Member("cat", e.category)
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
  const uint32_t depth = std::min(tls_open_spans, kMaxSpanStack);
  return depth == 0 ? 0 : tls_span_stack[depth - 1];
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view category)
    : session_(GlobalTraceSession()) {
  if (session_ == nullptr) return;
  name_ = name;
  category_ = category;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed) + 1;
  depth_ = tls_open_spans++;
  if (depth_ < kMaxSpanStack) tls_span_stack[depth_] = id_;
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (session_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  --tls_open_spans;
  if (tls_open_spans < kMaxSpanStack) tls_span_stack[tls_open_spans] = 0;
  TraceEvent event;
  event.name = std::move(name_);
  event.category = std::move(category_);
  event.ts_us = session_->SinceStartUs(start_);
  event.dur_us = session_->SinceStartUs(end) - event.ts_us;
  event.tid = CurrentThreadTraceId();
  event.depth = depth_;
  event.span_id = id_;
  session_->Add(std::move(event));
}

}  // namespace homets::obs
