#include "core/dominance.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "core/dominance_grid.h"
#include "core/similarity.h"
#include "correlation/prepared_series.h"
#include "distance/distance.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace homets::core {

// The paper compares every device on the gateway's full observation grid
// (Section 6.2 uses one n for all devices of a gateway). The grid — and with
// it the aggregate side's similarity profile — is identical for every device
// of a gateway, so it is built (and prepared) once and reused across devices.
AggregateGrid MakeAggregateGrid(const ts::TimeSeries& aggregate) {
  AggregateGrid grid;
  grid.step = aggregate.step_minutes();
  grid.minutes.reserve(aggregate.size());
  grid.values.reserve(aggregate.size());
  for (size_t i = 0; i < aggregate.size(); ++i) {
    const double agg = aggregate[i];
    if (ts::TimeSeries::IsMissing(agg)) continue;
    grid.minutes.push_back(aggregate.MinuteAt(i));
    grid.values.push_back(agg);
  }
  return grid;
}

void DeviceOnGrid(const ts::TimeSeries& device_total,
                  const AggregateGrid& grid,
                  std::vector<double>* device_values) {
  device_values->clear();
  device_values->reserve(grid.minutes.size());
  for (const int64_t minute : grid.minutes) {
    double dev = 0.0;
    if (minute >= device_total.start_minute() &&
        minute < device_total.EndMinute() &&
        (minute - device_total.start_minute()) % grid.step == 0) {
      const size_t idx = static_cast<size_t>(
          (minute - device_total.start_minute()) / grid.step);
      const double v = device_total[idx];
      if (!ts::TimeSeries::IsMissing(v)) dev = v;
    }
    device_values->push_back(dev);
  }
}

namespace {

std::vector<DominantDevice> RankAndFilter(
    std::vector<DominantDevice> candidates, const DominanceOptions& options) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const devices_tested =
      registry.GetCounter(obs::kDominanceDevicesTested);
  static obs::Counter* const devices_above_phi =
      registry.GetCounter(obs::kDominanceDevicesAbovePhi);
  devices_tested->Increment(candidates.size());
  std::sort(candidates.begin(), candidates.end(),
            [](const DominantDevice& a, const DominantDevice& b) {
              return a.similarity > b.similarity;
            });
  std::vector<DominantDevice> dominants;
  for (const auto& c : candidates) {
    if (c.similarity > options.phi) devices_above_phi->Increment();
    if (c.similarity > options.phi && dominants.size() < options.max_devices) {
      dominants.push_back(c);
    }
  }
  return dominants;
}

// The one Definition 4 device scan: every device's series (from
// `device_series`, null to skip the device) on `aggregate`'s grid against
// the aggregate, prepared once.
std::vector<DominantDevice> ScanDevices(
    const simgen::GatewayTrace& gateway, const ts::TimeSeries& aggregate,
    const std::function<const ts::TimeSeries*(size_t)>& device_series,
    const DominanceOptions& options) {
  if (aggregate.empty()) return {};
  SimilarityOptions sim_options;
  sim_options.alpha = options.alpha;
  const AggregateGrid grid = MakeAggregateGrid(aggregate);
  const correlation::PreparedSeries prepared_aggregate =
      correlation::PreparedSeries::Make(grid.values);
  std::vector<DominantDevice> candidates;
  std::vector<double> device_values;
  correlation::PairWorkspace workspace;
  for (size_t d = 0; d < gateway.devices.size(); ++d) {
    const ts::TimeSeries* series = device_series(d);
    if (series == nullptr) continue;
    DeviceOnGrid(*series, grid, &device_values);
    const SimilarityResult sim = CorrelationSimilarity(
        correlation::PreparedSeries::Make(device_values), prepared_aggregate,
        sim_options, &workspace);
    DominantDevice candidate;
    candidate.device_index = d;
    candidate.similarity = sim.value;
    candidate.reported_type = gateway.devices[d].reported_type;
    candidates.push_back(candidate);
  }
  return RankAndFilter(std::move(candidates), options);
}

}  // namespace

std::vector<DominantDevice> FindDominantDevices(
    const simgen::GatewayTrace& gateway, const ts::TimeSeries& aggregate,
    const std::vector<ts::TimeSeries>& device_totals,
    const DominanceOptions& options) {
  obs::ScopedSpan span("dominance.find");
  return ScanDevices(
      gateway, aggregate, [&](size_t d) { return &device_totals[d]; },
      options);
}

std::vector<DominantDevice> FindDominantDevices(
    const simgen::GatewayTrace& gateway, const DominanceOptions& options) {
  std::vector<ts::TimeSeries> totals;
  ts::TimeSeries aggregate;
  for (const auto& device : gateway.devices) {
    totals.push_back(device.TotalTraffic());
    ts::AddInto(&aggregate, totals.back());
  }
  return FindDominantDevices(gateway, aggregate, totals, options);
}

std::vector<DominantDevice> FindDominantDevicesInWindow(
    const simgen::GatewayTrace& gateway, int64_t begin_minute,
    int64_t end_minute, int64_t granularity_minutes,
    int64_t anchor_offset_minutes, const DominanceOptions& options) {
  obs::ScopedSpan span("dominance.find_in_window");
  auto window_of = [&](const ts::TimeSeries& series) -> ts::TimeSeries {
    auto aggregated = ts::Aggregate(series, granularity_minutes,
                                    anchor_offset_minutes, ts::AggKind::kSum);
    if (!aggregated.ok()) return ts::TimeSeries();
    const int64_t begin = std::max(begin_minute, aggregated->start_minute());
    const int64_t end = std::min(end_minute, aggregated->EndMinute());
    if (begin >= end) return ts::TimeSeries();
    auto slice = aggregated->Slice(begin, end);
    return slice.ok() ? std::move(slice).value() : ts::TimeSeries();
  };
  // A device whose series does not reach into the window is not ranked.
  ts::TimeSeries device_window;
  return ScanDevices(
      gateway, window_of(gateway.AggregateTraffic()),
      [&](size_t d) -> const ts::TimeSeries* {
        device_window = window_of(gateway.devices[d].TotalTraffic());
        return device_window.empty() ? nullptr : &device_window;
      },
      options);
}

std::vector<size_t> RankDevicesByEuclidean(
    const simgen::GatewayTrace& gateway) {
  const ts::TimeSeries aggregate = gateway.AggregateTraffic();
  const AggregateGrid grid = MakeAggregateGrid(aggregate);
  std::vector<std::pair<double, size_t>> keyed;
  std::vector<double> device_values;
  for (size_t d = 0; d < gateway.devices.size(); ++d) {
    const ts::TimeSeries total = gateway.devices[d].TotalTraffic();
    double key = std::numeric_limits<double>::infinity();
    if (!aggregate.empty() && !total.empty()) {
      // Same grid convention as FindDominantDevices: the paper compares all
      // devices over the gateway's full observation window, with
      // non-reporting minutes as zero traffic.
      DeviceOnGrid(total, grid, &device_values);
      auto dist = distance::Euclidean(device_values, grid.values);
      if (dist.ok()) key = *dist;
    }
    keyed.emplace_back(key, d);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<size_t> order;
  order.reserve(keyed.size());
  for (const auto& [key, idx] : keyed) order.push_back(idx);
  return order;
}

std::vector<size_t> RankDevicesByVolume(const simgen::GatewayTrace& gateway) {
  std::vector<std::pair<double, size_t>> keyed;
  for (size_t d = 0; d < gateway.devices.size(); ++d) {
    keyed.emplace_back(gateway.devices[d].TotalTraffic().Sum(), d);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<size_t> order;
  order.reserve(keyed.size());
  for (const auto& [key, idx] : keyed) order.push_back(idx);
  return order;
}

size_t CountRankAgreement(const std::vector<DominantDevice>& dominants,
                          const std::vector<size_t>& baseline_ranking) {
  size_t agree = 0;
  for (size_t i = 0; i < dominants.size() && i < baseline_ranking.size(); ++i) {
    if (dominants[i].device_index == baseline_ranking[i]) ++agree;
  }
  return agree;
}

}  // namespace homets::core
