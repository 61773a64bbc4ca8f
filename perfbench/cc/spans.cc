#include "spans.h"

#include <fstream>

#include "common.h"

namespace perfbench {

void SpanRecorder::Begin(std::string name, int gateway) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.gateway = gateway;
  span.thread = thread_;
  open_.push_back(static_cast<int>(spans_.size()));
  spans_.push_back(std::move(span));
  spans_.back().start_ns = NowNs();
}

void SpanRecorder::End() {
  const int64_t now = NowNs();
  spans_[static_cast<size_t>(open_.back())].end_ns = now;
  open_.pop_back();
}

void SpanRecorder::Merge(const SpanRecorder& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  // Children of one span are sequential (one thread, properly nested), so
  // the interval they cover is the sum of their durations.
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] +=
          static_cast<double>(span.duration_ns());
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    const double duration = static_cast<double>(spans[i].duration_ns());
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return totals;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"gateway\": " << s.gateway
        << ", \"thread\": " << s.thread << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
