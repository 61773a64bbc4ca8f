#include "obs/trace.h"

#include <cstdio>

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

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
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
  const std::vector<TraceEvent> events = Events();
  std::string out = "{\"traceEvents\": [\n";
  char buf[160];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += "  {\"name\": \"" + JsonEscape(e.name) + "\", \"cat\": \"" +
           JsonEscape(e.category) + "\", ";
    std::snprintf(buf, sizeof(buf),
                  "\"ph\": \"X\", \"ts\": %lld, \"dur\": %lld, \"pid\": 1, "
                  "\"tid\": %u, \"args\": {\"depth\": %u, \"span_id\": %llu}}",
                  static_cast<long long>(e.ts_us),
                  static_cast<long long>(e.dur_us), e.tid, e.depth,
                  static_cast<unsigned long long>(e.span_id));
    out += buf;
    if (i + 1 < events.size()) out += ',';
    out += '\n';
  }
  out += "]}\n";
  return out;
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

ScopedSpan::ScopedSpan(std::string name, std::string category)
    : name_(std::move(name)),
      category_(std::move(category)),
      session_(GlobalTraceSession()) {
  if (session_ == nullptr) return;
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
  // TraceSession::Add returns void; the name collides with the
  // Result-returning TimeSeries::Add in the linter's tree-wide match.
  session_->Add(std::move(event));  // homets-lint: allow(discarded-status)
}

}  // namespace homets::obs
