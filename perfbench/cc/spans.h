#ifndef HOMETS_PERFBENCH_SPANS_H_
#define HOMETS_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

// In-memory spans for the traced run: the benchmark wraps each call it makes
// into a homets layer in a span (name, start, end, parent), and every span
// of one gateway carries that gateway's id. Nothing inside the library is
// instrumented; spans are written out once the run ends.
namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;   ///< index into the same recorder's spans, -1 = root
  int gateway = -1;  ///< shared by every span of one gateway
  int thread = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Records one thread's spans; not thread-safe by design (each worker owns
/// one, and Merge joins them after the workers are done).
class SpanRecorder {
 public:
  explicit SpanRecorder(int thread = 0) : thread_(thread) {}

  void Begin(std::string name, int gateway);
  void End();
  /// Times `fn` under a span named `name`; returns what `fn` returns.
  template <typename F>
  auto Time(std::string name, int gateway, F&& fn) {
    Begin(std::move(name), gateway);
    struct Ender {
      SpanRecorder* r;
      ~Ender() { r->End(); }
    } ender{this};
    return fn();
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Appends `other`'s spans, re-basing their parent indices.
  void Merge(const SpanRecorder& other);

 private:
  int thread_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per span name: total duration and self time (duration minus the part of
/// the interval its children cover), in ns.
struct SpanTotals {
  double total_ns = 0.0;
  double self_ns = 0.0;
};
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans);

/// Writes the spans as JSON lines (one object per span).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // HOMETS_PERFBENCH_SPANS_H_
