// Per-call correlation kernel times at the two input shapes the workloads
// feed them, cut from the workload's own traces.
#include "core/background.h"
#include "correlation/prepared_series.h"
#include "workloads.h"

namespace perfbench {

namespace hm = homets;
namespace corr = homets::correlation;

namespace {

/// Receives every kernel result so no timed call can be optimized away.
volatile double g_sink = 0.0;

/// Median per-call microseconds of `fn` over `batches` batches of `calls`.
template <typename F>
double PerCallUs(int batches, int calls, F&& fn) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const auto start = Clock::now();
    for (int c = 0; c < calls; ++c) fn(c);
    samples.push_back(SecondsSince(start) * 1e6 / calls);
  }
  return Median(std::move(samples));
}

/// A device's total traffic on the gateway's observed aggregate grid, with
/// minutes the device did not report as 0 — the series dominance compares
/// (core/dominance.cc).
std::vector<double> DeviceOnGrid(const hm::ts::TimeSeries& device,
                                 const hm::ts::TimeSeries& aggregate) {
  std::vector<double> values;
  for (size_t i = 0; i < aggregate.size(); ++i) {
    if (hm::ts::TimeSeries::IsMissing(aggregate[i])) continue;
    const int64_t minute = aggregate.MinuteAt(i);
    double v = 0.0;
    if (minute >= device.start_minute() && minute < device.EndMinute() &&
        (minute - device.start_minute()) % device.step_minutes() == 0) {
      const double d = device[static_cast<size_t>(
          (minute - device.start_minute()) / device.step_minutes())];
      if (!hm::ts::TimeSeries::IsMissing(d)) v = d;
    }
    values.push_back(v);
  }
  return values;
}

struct Shape {
  std::vector<std::vector<double>> lhs, rhs;  ///< pairs of equal length
};

void ProbeShape(const Shape& shape, int batches, int calls,
                const std::string& suffix, MetricSet* metrics) {
  const size_t n = shape.lhs.size();
  if (n == 0) return;
  std::vector<corr::PreparedSeries> x, y;
  for (size_t i = 0; i < n; ++i) {
    x.push_back(corr::PreparedSeries::Make(shape.lhs[i]));
    y.push_back(corr::PreparedSeries::Make(shape.rhs[i]));
  }
  corr::PairWorkspace workspace;
  double sink = 0.0;
  metrics->Set("correlation.prepare_us." + suffix,
               PerCallUs(batches, calls, [&](int c) {
                 const auto p = corr::PreparedSeries::Make(
                     shape.lhs[static_cast<size_t>(c) % n]);
                 sink += p.mean();
               }));
  const auto pair_us = [&](auto kernel) {
    return PerCallUs(batches, calls, [&](int c) {
      const size_t i = static_cast<size_t>(c) % n;
      const auto r = kernel(x[i], y[i], &workspace);
      if (r.ok()) sink += r->coefficient;
    });
  };
  metrics->Set("correlation.pearson_us." + suffix,
               pair_us([](const auto& a, const auto& b, auto* w) {
                 return corr::Pearson(a, b, w);
               }));
  metrics->Set("correlation.spearman_us." + suffix,
               pair_us([](const auto& a, const auto& b, auto* w) {
                 return corr::Spearman(a, b, w);
               }));
  metrics->Set("correlation.kendall_us." + suffix,
               pair_us([](const auto& a, const auto& b, auto* w) {
                 return corr::Kendall(a, b, w);
               }));
  g_sink = sink;
}

}  // namespace

void ProbeCorrelation(const std::vector<hm::simgen::GatewayTrace>& sample,
                      MetricSet* metrics) {
  Shape long_shape, short_shape;
  for (const auto& trace : sample) {
    const auto aggregate = trace.AggregateTraffic();
    for (size_t d = 0; d < trace.devices.size() && d < 3; ++d) {
      long_shape.lhs.push_back(
          DeviceOnGrid(trace.devices[d].TotalTraffic(), aggregate));
      long_shape.rhs.push_back(DeviceOnGrid(aggregate, aggregate));
    }
    const auto binned = hm::ts::Aggregate(hm::core::ActiveAggregate(trace), 180,
                                          0, hm::ts::AggKind::kSum);
    if (!binned.ok()) continue;
    const auto days = hm::ts::SliceWindows(*binned, hm::ts::kMinutesPerDay, 0);
    for (size_t i = 0; i + 1 < days.size(); ++i) {
      short_shape.lhs.push_back(days[i].values());
      short_shape.rhs.push_back(days[i + 1].values());
    }
  }
  ProbeShape(long_shape, 3, static_cast<int>(long_shape.lhs.size()), "long",
             metrics);
  ProbeShape(short_shape, 9, 2000, "short", metrics);
}

}  // namespace perfbench
