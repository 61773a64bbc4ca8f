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
  std::vector<double> sum(static_cast<size_t>((end - begin) / step));
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
  return ts::TimeSeries(begin, step, std::move(sum));
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
