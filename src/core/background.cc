#include "core/background.h"

#include <algorithm>

#include "obs/log.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/boxplot.h"

namespace homets::core {

std::string TauGroupName(TauGroup group) {
  switch (group) {
    case TauGroup::kSmall:
      return "small";
    case TauGroup::kMedium:
      return "medium";
    case TauGroup::kLarge:
      return "large";
  }
  return "small";
}

TauGroup ClassifyTau(double tau) {
  if (tau <= 5000.0) return TauGroup::kSmall;
  if (tau <= 40000.0) return TauGroup::kMedium;
  return TauGroup::kLarge;
}

Result<BackgroundThreshold> EstimateBackgroundThreshold(
    const ts::TimeSeries& traffic, std::vector<double>* scratch) {
  scratch->clear();
  scratch->reserve(traffic.size());
  for (const double v : traffic.values()) {
    if (!ts::TimeSeries::IsMissing(v)) scratch->push_back(v);
  }
  if (scratch->size() < 8) {
    return Status::InvalidArgument(
        "EstimateBackgroundThreshold: need >= 8 observations");
  }
  BackgroundThreshold result;
  result.observations = scratch->size();
  HOMETS_ASSIGN_OR_RETURN(result.tau, stats::UpperWhisker(*scratch));
  result.tau_back = std::min(result.tau, kBackgroundCapBytes);
  result.group = ClassifyTau(result.tau);
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const thresholds_estimated =
      registry.GetCounter(obs::kBackgroundThresholdsEstimated);
  static obs::Counter* const tau_capped =
      registry.GetCounter(obs::kBackgroundTauCapped);
  thresholds_estimated->Increment();
  if (result.tau > kBackgroundCapBytes) {
    tau_capped->Increment();
    // A capped whisker means the gateway's background estimate hit the
    // paper's 100 MB ceiling — worth a breadcrumb when debug-tracing a run.
    obs::LogDebug("background", "tau capped",
                  {obs::LogField::Double("tau", result.tau),
                   obs::LogField::Double("cap", kBackgroundCapBytes)});
  }
  return result;
}

Result<DeviceBackground> EstimateDeviceBackground(
    const simgen::DeviceTrace& device, std::vector<double>* scratch) {
  obs::StageTimer stage("background.tau");
  DeviceBackground bg;
  HOMETS_ASSIGN_OR_RETURN(
      bg.incoming, EstimateBackgroundThreshold(device.incoming, scratch));
  HOMETS_ASSIGN_OR_RETURN(
      bg.outgoing, EstimateBackgroundThreshold(device.outgoing, scratch));
  return bg;
}

Result<DeviceBackground> EstimateDeviceBackground(
    const simgen::DeviceTrace& device) {
  std::vector<double> scratch;
  return EstimateDeviceBackground(device, &scratch);
}

Status ActiveTraffic(const simgen::DeviceTrace& device,
                     const DeviceBackground& background,
                     ts::TimeSeries* active) {
  static obs::Counter* const values_zeroed =
      obs::MetricsRegistry::Global().GetCounter(obs::kBackgroundValuesZeroed);
  const ts::TimeSeries& in = device.incoming;
  const ts::TimeSeries& out = device.outgoing;
  HOMETS_RETURN_IF_ERROR(ts::TimeSeries::CheckSameGrid(in, out));
  // One pass over the union of both spans, on TimeSeries::Add's grid: each
  // side's values below its τ_back become zero (counted when not already
  // zero), then the sides add by Add's missing-value rule.
  const int64_t step = in.step_minutes();
  const int64_t begin = std::min(in.start_minute(), out.start_minute());
  const int64_t end = std::max(in.EndMinute(), out.EndMinute());
  const int64_t in_offset = (in.start_minute() - begin) / step;
  const int64_t out_offset = (out.start_minute() - begin) / step;
  const double in_tau = background.incoming.tau_back;
  const double out_tau = background.outgoing.tau_back;
  uint64_t zeroed = 0;
  const auto clipped = [&zeroed](const ts::TimeSeries& side, int64_t j,
                                 double tau) {
    if (j < 0 || static_cast<size_t>(j) >= side.size()) {
      return ts::TimeSeries::Missing();
    }
    const double v = side[static_cast<size_t>(j)];
    if (!(v < tau)) return v;  // missing stays missing
    if (v != 0.0) ++zeroed;
    return 0.0;
  };
  // Every slot is written below, so the reused buffer needs no fill.
  std::vector<double> sum = std::move(active->mutable_values());
  sum.resize(static_cast<size_t>((end - begin) / step));
  for (size_t j = 0; j < sum.size(); ++j) {
    const int64_t at = static_cast<int64_t>(j);
    const double a = clipped(in, at - in_offset, in_tau);
    const double b = clipped(out, at - out_offset, out_tau);
    if (ts::TimeSeries::IsMissing(a)) {
      sum[j] = ts::TimeSeries::IsMissing(b) ? ts::TimeSeries::Missing() : b;
    } else {
      sum[j] = ts::TimeSeries::IsMissing(b) ? a : a + b;
    }
  }
  values_zeroed->Increment(zeroed);
  *active = ts::TimeSeries(begin, step, std::move(sum));
  return Status::OK();
}

namespace {

// The one active-aggregate sum: `total_of(d)` is device d's TotalTraffic(),
// asked for only where the device enters unfiltered.
template <typename TotalOf>
void SumActive(const simgen::GatewayTrace& gateway,
               const std::vector<Result<DeviceBackground>>& backgrounds,
               const TotalOf& total_of, ts::TimeSeries* device_active,
               ts::TimeSeries* active) {
  obs::StageTimer stage("background.active_aggregate");
  ts::ClearKeepingBuffer(active);
  for (size_t d = 0; d < gateway.devices.size(); ++d) {
    const Status filtered =
        backgrounds[d].ok()
            ? ActiveTraffic(gateway.devices[d], *backgrounds[d], device_active)
            : backgrounds[d].status();
    if (filtered.ok()) {
      ts::AddInto(active, *device_active);
    } else {
      ts::AddInto(active, total_of(d));
    }
  }
}

}  // namespace

void ActiveAggregate(const simgen::GatewayTrace& gateway,
                     const std::vector<Result<DeviceBackground>>& backgrounds,
                     const std::vector<ts::TimeSeries>& device_totals,
                     ts::TimeSeries* device_active, ts::TimeSeries* active) {
  SumActive(
      gateway, backgrounds,
      [&](size_t d) -> const ts::TimeSeries& { return device_totals[d]; },
      device_active, active);
}

ts::TimeSeries ActiveAggregate(const simgen::GatewayTrace& gateway) {
  std::vector<Result<DeviceBackground>> backgrounds;
  backgrounds.reserve(gateway.devices.size());
  std::vector<double> scratch;
  for (const auto& device : gateway.devices) {
    backgrounds.push_back(EstimateDeviceBackground(device, &scratch));
  }
  ts::TimeSeries device_active;
  ts::TimeSeries active;
  SumActive(
      gateway, backgrounds,
      [&](size_t d) { return gateway.devices[d].TotalTraffic(); },
      &device_active, &active);
  return active;
}

}  // namespace homets::core
