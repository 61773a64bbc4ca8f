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
    const ts::TimeSeries& traffic, std::vector<uint64_t>* keys) {
  // The whisker factor is the constant 1.5, so UpperWhisker fails only on a
  // series with no observation, which is too few as well.
  const auto whisker = stats::UpperWhisker(traffic.values(), keys);
  if (!whisker.ok() || whisker->observations < 8) {
    return Status::InvalidArgument(
        "EstimateBackgroundThreshold: need >= 8 observations");
  }
  BackgroundThreshold result;
  result.observations = whisker->observations;
  result.tau = whisker->value;
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
    const simgen::DeviceTrace& device, std::vector<uint64_t>* keys) {
  obs::StageTimer stage("background.tau");
  DeviceBackground bg;
  HOMETS_ASSIGN_OR_RETURN(
      bg.incoming, EstimateBackgroundThreshold(device.incoming, keys));
  HOMETS_ASSIGN_OR_RETURN(
      bg.outgoing, EstimateBackgroundThreshold(device.outgoing, keys));
  return bg;
}

Result<DeviceBackground> EstimateDeviceBackground(
    const simgen::DeviceTrace& device) {
  std::vector<uint64_t> keys;
  return EstimateDeviceBackground(device, &keys);
}

Status ActiveTraffic(const simgen::DeviceTrace& device,
                     const DeviceBackground& background,
                     ts::TimeSeries* active) {
  static obs::Counter* const values_zeroed =
      obs::MetricsRegistry::Global().GetCounter(obs::kBackgroundValuesZeroed);
  HOMETS_RETURN_IF_ERROR(
      ts::TimeSeries::CheckSameGrid(device.incoming, device.outgoing));
  // One pass over TotalTraffic()'s grid (the union of both spans): each
  // side's values below its τ_back become zero (counted when not already
  // zero), then the sides add by Add's missing-value rule.
  const simgen::TotalTrafficView view(device);
  uint64_t zeroed = 0;
  const auto clipped = [&zeroed](double v, double tau) {
    if (!(v < tau)) return v;  // missing stays missing
    if (v != 0.0) ++zeroed;
    return 0.0;
  };
  // Every slot is written below, so the reused buffer needs no fill.
  std::vector<double> sum = std::move(active->mutable_values());
  sum.resize(view.size());
  for (size_t j = 0; j < sum.size(); ++j) {
    sum[j] = simgen::TotalTrafficView::AddBins(
        clipped(view.incoming(j), background.incoming.tau_back),
        clipped(view.outgoing(j), background.outgoing.tau_back));
  }
  values_zeroed->Increment(zeroed);
  *active =
      ts::TimeSeries(view.start_minute(), view.step_minutes(), std::move(sum));
  return Status::OK();
}

void ActiveAggregate(const simgen::GatewayTrace& gateway,
                     const std::vector<Result<DeviceBackground>>& backgrounds,
                     ts::TimeSeries* device_active, ts::TimeSeries* active) {
  obs::StageTimer stage("background.active_aggregate");
  ts::ClearKeepingBuffer(active);
  for (size_t d = 0; d < gateway.devices.size(); ++d) {
    const simgen::DeviceTrace& device = gateway.devices[d];
    const Status filtered =
        backgrounds[d].ok()
            ? ActiveTraffic(device, *backgrounds[d], device_active)
            : backgrounds[d].status();
    if (filtered.ok()) {
      ts::AddInto(active, *device_active);
    } else {
      ts::AddInto(active, simgen::TotalTrafficView(device));
    }
  }
}

void ActiveAggregate(const simgen::GatewayTrace& gateway,
                     std::vector<uint64_t>* keys,
                     std::vector<Result<DeviceBackground>>* backgrounds,
                     ts::TimeSeries* device_active, ts::TimeSeries* active) {
  backgrounds->clear();
  backgrounds->reserve(gateway.devices.size());
  for (const auto& device : gateway.devices) {
    backgrounds->push_back(EstimateDeviceBackground(device, keys));
  }
  ActiveAggregate(gateway, *backgrounds, device_active, active);
}

ts::TimeSeries ActiveAggregate(const simgen::GatewayTrace& gateway) {
  std::vector<uint64_t> keys;
  std::vector<Result<DeviceBackground>> backgrounds;
  ts::TimeSeries device_active;
  ts::TimeSeries active;
  ActiveAggregate(gateway, &keys, &backgrounds, &device_active, &active);
  return active;
}

}  // namespace homets::core
