#ifndef HOMETS_CORE_BACKGROUND_H_
#define HOMETS_CORE_BACKGROUND_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "simgen/types.h"
#include "ts/time_series.h"

namespace homets::core {

/// Paper constant (Section 6.1): effective background threshold is
/// min(τ, 5000) bytes per minute.
inline constexpr double kBackgroundCapBytes = 5000.0;

/// Section 6.1 τ groups: small τ <= 5000, medium τ in (5000, 40000],
/// large τ > 40000.
enum class TauGroup { kSmall, kMedium, kLarge };

std::string TauGroupName(TauGroup group);

TauGroup ClassifyTau(double tau);

/// \brief Background-traffic characterization of one device direction.
struct BackgroundThreshold {
  double tau = 0.0;       ///< upper whisker of the traffic boxplot
  double tau_back = 0.0;  ///< min(τ, 5000): threshold actually applied
  TauGroup group = TauGroup::kSmall;
  size_t observations = 0;
};

/// \brief Estimates τ for a traffic series (Section 6.1): the upper whisker
/// of the boxplot of observed values. Requires at least 8 observations.
Result<BackgroundThreshold> EstimateBackgroundThreshold(
    const ts::TimeSeries& traffic);

/// \brief Per-device, per-direction thresholds (the paper estimates τ for
/// incoming and outgoing separately).
struct DeviceBackground {
  BackgroundThreshold incoming;
  BackgroundThreshold outgoing;
};

Result<DeviceBackground> EstimateDeviceBackground(
    const simgen::DeviceTrace& device);

/// \brief Zeroes values below `background`'s τ_back (per direction; missing
/// values stay missing), the paper's background removal (Section 6.1), and
/// returns the active-only total traffic of the device: the sum of the two
/// clipped directions by TimeSeries::Add's rule, or Add's error for a step
/// or phase mismatch. Counts the values it zeroes in
/// homets.background.values_zeroed.
Result<ts::TimeSeries> ActiveTraffic(const simgen::DeviceTrace& device,
                                     const DeviceBackground& background);

/// \brief Active-only aggregate of a gateway: each device's ActiveTraffic
/// under its entry of `backgrounds` (indexed like GatewayTrace::devices),
/// summed. Falls back to including a device unfiltered, as its
/// TotalTraffic(), when its τ cannot be estimated (too few observations —
/// e.g. brief guests).
ts::TimeSeries ActiveAggregate(
    const simgen::GatewayTrace& gateway,
    const std::vector<Result<DeviceBackground>>& backgrounds);

/// \brief ActiveAggregate under each device's EstimateDeviceBackground: the
/// same series as BuildGatewayPipeline(gateway).active, without the
/// pipeline's device totals and raw aggregate.
ts::TimeSeries ActiveAggregate(const simgen::GatewayTrace& gateway);

}  // namespace homets::core

#endif  // HOMETS_CORE_BACKGROUND_H_
