#include "core/background.h"

#include <algorithm>

#include "obs/log.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/boxplot.h"

namespace homets::core {

namespace {

// Observed values ClipBelow(threshold) will zero: strictly below τ_back and
// not already zero. Counted up front so thresholding itself stays untouched.
uint64_t CountValuesToZero(const ts::TimeSeries& series, double threshold) {
  uint64_t zeroed = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    const double v = series[i];
    if (!ts::TimeSeries::IsMissing(v) && v != 0.0 && v < threshold) ++zeroed;
  }
  return zeroed;
}

}  // namespace

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
    const ts::TimeSeries& traffic) {
  std::vector<double> observed = traffic.ObservedValues();
  if (observed.size() < 8) {
    return Status::InvalidArgument(
        "EstimateBackgroundThreshold: need >= 8 observations");
  }
  BackgroundThreshold result;
  result.observations = observed.size();
  HOMETS_ASSIGN_OR_RETURN(result.tau,
                          stats::UpperWhisker(std::move(observed)));
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
    const simgen::DeviceTrace& device) {
  DeviceBackground bg;
  HOMETS_ASSIGN_OR_RETURN(bg.incoming,
                          EstimateBackgroundThreshold(device.incoming));
  HOMETS_ASSIGN_OR_RETURN(bg.outgoing,
                          EstimateBackgroundThreshold(device.outgoing));
  return bg;
}

Result<ts::TimeSeries> ActiveTraffic(const simgen::DeviceTrace& device,
                                     const DeviceBackground& background) {
  static obs::Counter* const values_zeroed =
      obs::MetricsRegistry::Global().GetCounter(obs::kBackgroundValuesZeroed);
  values_zeroed->Increment(
      CountValuesToZero(device.incoming, background.incoming.tau_back) +
      CountValuesToZero(device.outgoing, background.outgoing.tau_back));
  const ts::TimeSeries in_active =
      device.incoming.ClipBelow(background.incoming.tau_back);
  const ts::TimeSeries out_active =
      device.outgoing.ClipBelow(background.outgoing.tau_back);
  return ts::TimeSeries::Add(in_active, out_active);
}

ts::TimeSeries ActiveAggregate(
    const simgen::GatewayTrace& gateway,
    const std::vector<Result<DeviceBackground>>& backgrounds) {
  obs::ScopedSpan span("background.active_aggregate");
  ts::TimeSeries total;
  for (size_t d = 0; d < gateway.devices.size(); ++d) {
    const simgen::DeviceTrace& device = gateway.devices[d];
    const Result<ts::TimeSeries> active =
        backgrounds[d].ok() ? ActiveTraffic(device, *backgrounds[d])
                            : backgrounds[d].status();
    if (active.ok()) {
      ts::AddInto(&total, *active);
    } else {
      ts::AddInto(&total, device.TotalTraffic());
    }
  }
  return total;
}

ts::TimeSeries ActiveAggregate(const simgen::GatewayTrace& gateway) {
  std::vector<Result<DeviceBackground>> backgrounds;
  backgrounds.reserve(gateway.devices.size());
  for (const auto& device : gateway.devices) {
    backgrounds.push_back(EstimateDeviceBackground(device));
  }
  return ActiveAggregate(gateway, backgrounds);
}

}  // namespace homets::core
