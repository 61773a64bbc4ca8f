#ifndef HOMETS_CORE_PROFILING_H_
#define HOMETS_CORE_PROFILING_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/background.h"
#include "core/dominance.h"
#include "core/stationarity.h"
#include "simgen/types.h"
#include "ts/time_series.h"

namespace homets::core {

/// \brief The per-gateway intermediates every analysis of a gateway reads,
/// each computed exactly once by BuildGatewayPipeline (DESIGN.md §15).
/// `backgrounds` and `device_totals` are indexed like GatewayTrace::devices.
struct GatewayPipeline {
  /// τ per device and direction (Section 6.1); an error when a direction
  /// has fewer than 8 observations.
  std::vector<Result<DeviceBackground>> backgrounds;
  /// DeviceTrace::TotalTraffic() per device.
  std::vector<ts::TimeSeries> device_totals;
  /// GatewayTrace::AggregateTraffic(): the raw sum of `device_totals`.
  ts::TimeSeries aggregate;
  /// The background-free aggregate: ActiveAggregate under `backgrounds`,
  /// with `device_totals` for the devices whose τ failed.
  ts::TimeSeries active;
};

/// \brief The week-long buffers of one gateway's pass: its decoded columns,
/// its GatewayPipeline and the scratch of τ, the active aggregate and
/// Definition 4. One fleet worker keeps one and reuses it for every gateway
/// it analyzes, so that once the first gateway has sized the buffers later
/// gateways allocate nothing week-sized (DESIGN.md §15.1). Every buffer is
/// fully rewritten before it is read; nothing carries over between
/// gateways.
struct GatewayWorkspace {
  simgen::GatewayTrace trace;  ///< the gateway, decoded in place
  /// Devices and device totals beyond the current gateway's count, kept
  /// with their buffers for a later gateway with more devices.
  std::vector<simgen::DeviceTrace> spare_devices;
  std::vector<ts::TimeSeries> spare_totals;
  GatewayPipeline pipeline;      ///< built by BuildGatewayPipeline
  std::vector<double> observed;  ///< one direction's observed values (τ)
  ts::TimeSeries device_active;  ///< one device's active traffic
  DominanceWorkspace dominance;  ///< Definition 4's scan
};

/// \brief Computes every GatewayPipeline field from `gateway`, device by
/// device, into `workspace->pipeline`, reusing the workspace's buffers.
/// `gateway` may be `workspace->trace`.
void BuildGatewayPipeline(const simgen::GatewayTrace& gateway,
                          GatewayWorkspace* workspace);

/// \brief High-level profile of one gateway — the "high level profiling of
/// gateways" the paper says dominant-device knowledge enables for ISPs
/// (Section 6.2). Bundles every per-gateway output of the framework.
struct GatewayProfile {
  int gateway_id = 0;
  /// Devices with at least one observed minute (a device listed in the
  /// trace but never seen is not counted).
  size_t devices_observed = 0;

  std::vector<DominantDevice> dominant_devices;  ///< φ = 0.6, ranked
  /// Lower bound on the resident count (Section 6.2's finding #4).
  size_t min_residents = 0;

  /// Strong stationarity of weekly windows at 3 h bins on active traffic.
  bool weekly_stationary = false;
  double min_week_pair_similarity = 0.0;

  /// Quietest 3-hour slot of the day (0..7) by mean active traffic — the
  /// firmware-update window.
  int quietest_slot = 0;
  /// Share of active traffic in the evening slots (18:00–24:00).
  double evening_share = 0.0;

  /// Per-device τ groups (small/medium/large) by reported type.
  std::vector<std::pair<std::string, TauGroup>> device_tau_groups;
};

/// \brief Options for profiling.
struct ProfilingOptions {
  DominanceOptions dominance;
  StationarityOptions stationarity;
  int64_t aggregation_minutes = 180;
};

/// \brief Computes the full profile of a gateway from its trace and the
/// trace's GatewayPipeline, with Definition 4 scanned in `*dominance`.
/// Fails only when the active aggregate holds no observation; a trace
/// shorter than two weekly windows still profiles, as not weekly stationary
/// with a weakest week pair cor of 0.
Result<GatewayProfile> ProfileGateway(const simgen::GatewayTrace& gateway,
                                      const GatewayPipeline& pipeline,
                                      const ProfilingOptions& options,
                                      DominanceWorkspace* dominance);

/// \brief ProfileGateway on the pipeline of `gateway`, built in a
/// workspace of its own.
Result<GatewayProfile> ProfileGateway(const simgen::GatewayTrace& gateway,
                                      const ProfilingOptions& options = {});

/// \brief Renders the profile as a short human-readable report.
std::string FormatProfile(const GatewayProfile& profile);

}  // namespace homets::core

#endif  // HOMETS_CORE_PROFILING_H_
