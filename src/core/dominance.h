#ifndef HOMETS_CORE_DOMINANCE_H_
#define HOMETS_CORE_DOMINANCE_H_

#include <cstdint>
#include <vector>

#include "core/dominance_grid.h"
#include "correlation/prepared_series.h"
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

/// \brief The week-long buffers of one Definition 4 scan. A caller that
/// scans many gateways keeps one and passes it to every scan, so that once
/// the first gateway has sized the buffers no scan allocates week-sized
/// memory. Each scan rewrites every buffer before it reads it; nothing
/// carries over from one scan to the next.
struct DominanceWorkspace {
  /// The aggregate's grid. Its `values` are handed to `aggregate` by
  /// PreparedSeries::Profile, so after a scan they hold a spare buffer.
  AggregateGrid grid;
  std::vector<double> device_values;      ///< one device on the grid
  correlation::PreparedSeries aggregate;  ///< the aggregate, profiled
  correlation::PreparedSeries device;     ///< one device, profiled
  correlation::ProfileScratch sort;       ///< the radix sort's buffers
  correlation::PairWorkspace pair;        ///< the kernels' per-pair buffers
};

/// \brief Definition 4: devices whose correlation similarity with the
/// gateway's aggregate traffic exceeds φ, ranked by descending similarity.
///
/// Uses the raw per-minute counters over the gateway's whole trace, like the
/// paper's 4-week dominance analysis: `aggregate` is the gateway's
/// AggregateTraffic() and each device enters as its TotalTraffic(), read in
/// place (simgen::TotalTrafficView). The scan runs in `*workspace`.
std::vector<DominantDevice> FindDominantDevices(
    const simgen::GatewayTrace& gateway, const ts::TimeSeries& aggregate,
    const DominanceOptions& options, DominanceWorkspace* workspace);

/// \brief FindDominantDevices on the aggregate computed from `gateway`.
std::vector<DominantDevice> FindDominantDevices(
    const simgen::GatewayTrace& gateway, const DominanceOptions& options = {});

/// \brief Window variant used for per-motif dominance (Section 7.2): device
/// and gateway traffic are aggregated to `granularity_minutes`
/// (anchor-aligned) and compared only within [begin_minute, end_minute),
/// clipped inward to whole bins of that grid.
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
