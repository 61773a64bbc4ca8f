#include "obs/metrics.h"

#include <algorithm>

#include "obs/json_encoder.h"

namespace homets::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t b = 0; b <= bounds_.size(); ++b) buckets_[b] = 0;
}

void Histogram::Observe(double value) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t b = 0; b < counts.size(); ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return counts;
}

void Histogram::Reset() {
  for (size_t b = 0; b <= bounds_.size(); ++b) {
    buckets_[b].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

const std::vector<double>& LatencyBucketsUs() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double decade = 1.0; decade <= 1e6; decade *= 10.0) {
      b.push_back(decade);
      b.push_back(2.0 * decade);
      b.push_back(5.0 * decade);
    }
    return b;  // 1, 2, 5, 10, …, 5e6 µs
  }();
  return bounds;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  MutexLock lock(&mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = LatencyBucketsUs();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.bounds = histogram->bounds();
    h.buckets = histogram->BucketCounts();
    h.count = histogram->Count();
    h.sum = histogram->Sum();
    snapshot.histograms[name] = std::move(h);
  }
  return snapshot;
}

std::string MetricsRegistry::ExportJson() const {
  const MetricsSnapshot snapshot = Snapshot();
  // Counters and histograms share one name-sorted member list; a counter
  // entry carries no histogram.
  std::map<std::string_view, std::pair<uint64_t, const HistogramSnapshot*>>
      entries;
  for (const auto& [name, value] : snapshot.counters) {
    entries[name] = {value, nullptr};
  }
  for (const auto& [name, h] : snapshot.histograms) entries[name] = {0, &h};
  JsonEncoder out;
  out.BeginObject();
  for (const auto& [name, entry] : entries) {
    const auto& [counter, h] = entry;
    out.Key(name);
    if (h == nullptr) {
      out.Value(counter);
      continue;
    }
    out.BeginObject()
        .Member("count", h->count)
        .Member("sum", h->sum)
        .Key("buckets")
        .BeginArray();
    for (size_t b = 0; b < h->buckets.size(); ++b) {
      out.BeginObject().Key("le");
      if (b < h->bounds.size()) {
        out.Value(h->bounds[b]);
      } else {
        out.Value("+inf");
      }
      out.Member("count", h->buckets[b]).EndObject();
    }
    out.EndArray().EndObject();
  }
  out.EndObject();
  return out.str();
}

double HistogramPercentile(const HistogramSnapshot& hist, double quantile) {
  if (hist.count == 0 || hist.buckets.empty()) return 0.0;
  if (quantile < 0.0) quantile = 0.0;
  if (quantile > 1.0) quantile = 1.0;
  const double target = quantile * static_cast<double>(hist.count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < hist.buckets.size(); ++b) {
    const uint64_t in_bucket = hist.buckets[b];
    if (static_cast<double>(cumulative + in_bucket) < target || in_bucket == 0) {
      cumulative += in_bucket;
      continue;
    }
    if (b >= hist.bounds.size()) {
      // Overflow bucket: no finite upper edge to interpolate toward — clamp
      // to the highest finite bound (Prometheus histogram_quantile does the
      // same).
      return hist.bounds.empty() ? 0.0 : hist.bounds.back();
    }
    const double lower = b == 0 ? 0.0 : hist.bounds[b - 1];
    const double upper = hist.bounds[b];
    const double into =
        (target - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
    return lower + (upper - lower) * into;
  }
  return hist.bounds.empty() ? 0.0 : hist.bounds.back();
}

void MetricsRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace homets::obs
