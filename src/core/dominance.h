#ifndef HOMETS_CORE_DOMINANCE_H_
#define HOMETS_CORE_DOMINANCE_H_

#include <cstdint>
#include <vector>

#include "simgen/types.h"
#include "ts/time_series.h"

namespace homets::core {

/// \brief A device whose traffic dominates (tracks) the gateway's aggregate.
struct DominantDevice {
  size_t device_index = 0;  ///< index into GatewayTrace::devices
  double similarity = 0.0;  ///< cor(device traffic, gateway traffic)
  simgen::DeviceType reported_type = simgen::DeviceType::kUnlabeled;
};

/// \brief Options for Definition 4.
struct DominanceOptions {
  double phi = 0.6;     ///< dominance threshold (paper also probes 0.8)
  double alpha = 0.05;  ///< significance level inside cor(·,·)
  /// Cap on reported devices; the paper observes at most 3 dominant devices
  /// per gateway and ranks them by similarity.
  size_t max_devices = 3;
};

/// \brief Definition 4: devices whose correlation similarity with the
/// gateway's aggregate traffic exceeds φ, ranked by descending similarity.
///
/// Uses the raw per-minute counters over the gateway's whole trace, like the
/// paper's 4-week dominance analysis: `aggregate` is the gateway's
/// AggregateTraffic() and `device_totals[d]` is device d's TotalTraffic(),
/// as a GatewayPipeline holds them.
std::vector<DominantDevice> FindDominantDevices(
    const simgen::GatewayTrace& gateway, const ts::TimeSeries& aggregate,
    const std::vector<ts::TimeSeries>& device_totals,
    const DominanceOptions& options = {});

/// \brief FindDominantDevices on totals and aggregate computed from
/// `gateway`.
std::vector<DominantDevice> FindDominantDevices(
    const simgen::GatewayTrace& gateway, const DominanceOptions& options = {});

/// \brief Window variant used for per-motif dominance (Section 7.2): device
/// and gateway traffic are aggregated to `granularity_minutes`
/// (anchor-aligned) and compared only within [begin_minute, end_minute).
std::vector<DominantDevice> FindDominantDevicesInWindow(
    const simgen::GatewayTrace& gateway, int64_t begin_minute,
    int64_t end_minute, int64_t granularity_minutes,
    int64_t anchor_offset_minutes, const DominanceOptions& options = {});

/// \brief Baseline: device indices ranked by ascending Euclidean distance to
/// the gateway aggregate (the closest device first). Devices with no
/// comparable observations rank last.
std::vector<size_t> RankDevicesByEuclidean(const simgen::GatewayTrace& gateway);

/// \brief Baseline: device indices ranked by descending total traffic
/// volume (the measure of the prior work the paper compares with).
std::vector<size_t> RankDevicesByVolume(const simgen::GatewayTrace& gateway);

/// \brief Number of correlation-dominant devices whose rank position
/// coincides with `baseline_ranking` (the paper's "ranked the same"
/// agreement: first matches first, second matches second, ...).
size_t CountRankAgreement(const std::vector<DominantDevice>& dominants,
                          const std::vector<size_t>& baseline_ranking);

}  // namespace homets::core

#endif  // HOMETS_CORE_DOMINANCE_H_
