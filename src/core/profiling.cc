#include "core/profiling.h"

#include <algorithm>
#include <array>

#include "common/strings.h"
#include "obs/trace.h"

namespace homets::core {

GatewayPipeline BuildGatewayPipeline(const simgen::GatewayTrace& gateway) {
  obs::ScopedSpan span("core.gateway_pipeline");
  GatewayPipeline pipeline;
  pipeline.backgrounds.reserve(gateway.devices.size());
  pipeline.device_totals.reserve(gateway.devices.size());
  for (const auto& device : gateway.devices) {
    pipeline.backgrounds.push_back(EstimateDeviceBackground(device));
    pipeline.device_totals.push_back(device.TotalTraffic());
    ts::AddInto(&pipeline.aggregate, pipeline.device_totals.back());
  }
  pipeline.active = ActiveAggregate(gateway, pipeline.backgrounds);
  return pipeline;
}

Result<GatewayProfile> ProfileGateway(const simgen::GatewayTrace& gateway,
                                      const GatewayPipeline& pipeline,
                                      const ProfilingOptions& options) {
  GatewayProfile profile;
  profile.gateway_id = gateway.id;

  const ts::TimeSeries& active = pipeline.active;
  if (active.empty() || active.CountObserved() == 0) {
    return Status::InvalidArgument("ProfileGateway: no observations");
  }
  for (const auto& total : pipeline.device_totals) {
    if (total.CountObserved() > 0) ++profile.devices_observed;
  }

  // Dominance + resident lower bound (Section 6.2).
  profile.dominant_devices =
      FindDominantDevices(gateway, pipeline.aggregate, pipeline.device_totals,
                          options.dominance);
  profile.min_residents = std::max<size_t>(1, profile.dominant_devices.size());

  // Weekly strong stationarity on aggregated active traffic.
  const auto windows = ts::AggregateWindows(active, options.aggregation_minutes,
                                            ts::kMinutesPerWeek, 0);
  if (windows.size() >= 2) {
    const auto result = CheckStrongStationarity(windows, options.stationarity);
    if (result.ok()) {
      profile.weekly_stationary = result->strongly_stationary;
      profile.min_week_pair_similarity = result->min_pair_similarity;
    }
  }

  // Slot usage: quietest slot and evening share.
  std::array<double, 8> slot_traffic{};
  std::array<size_t, 8> slot_counts{};
  for (size_t i = 0; i < active.size(); ++i) {
    const double v = active[i];
    if (ts::TimeSeries::IsMissing(v)) continue;
    const size_t slot = static_cast<size_t>(
        ts::MinuteOfDay(active.MinuteAt(i)) / 180);
    slot_traffic[slot] += v;
    ++slot_counts[slot];
  }
  double total = 0.0;
  double best_mean = -1.0;
  for (int s = 0; s < 8; ++s) {
    total += slot_traffic[static_cast<size_t>(s)];
    if (slot_counts[static_cast<size_t>(s)] == 0) continue;
    const double mean = slot_traffic[static_cast<size_t>(s)] /
                        static_cast<double>(slot_counts[static_cast<size_t>(s)]);
    if (best_mean < 0.0 || mean < best_mean) {
      best_mean = mean;
      profile.quietest_slot = s;
    }
  }
  if (total > 0.0) {
    profile.evening_share = (slot_traffic[6] + slot_traffic[7]) / total;
  }

  // τ groups per device.
  for (size_t d = 0; d < gateway.devices.size(); ++d) {
    const auto& bg = pipeline.backgrounds[d];
    if (!bg.ok()) continue;
    const simgen::DeviceTrace& dev = gateway.devices[d];
    profile.device_tau_groups.emplace_back(
        StrFormat("%s (%s)", dev.name.c_str(),
                  simgen::DeviceTypeName(dev.reported_type).c_str()),
        bg->incoming.group);
  }
  return profile;
}

Result<GatewayProfile> ProfileGateway(const simgen::GatewayTrace& gateway,
                                      const ProfilingOptions& options) {
  return ProfileGateway(gateway, BuildGatewayPipeline(gateway), options);
}

std::string FormatProfile(const GatewayProfile& profile) {
  std::string out = StrFormat(
      "gateway %d: %zu devices observed, >= %zu resident(s)\n",
      profile.gateway_id, profile.devices_observed, profile.min_residents);
  out += StrFormat("  weekly pattern: %s (weakest week pair cor = %.2f)\n",
                   profile.weekly_stationary ? "strongly stationary"
                                             : "changing week to week",
                   profile.min_week_pair_similarity);
  out += StrFormat(
      "  maintenance window: %02d:00-%02d:00, evening traffic share %.0f%%\n",
      profile.quietest_slot * 3, profile.quietest_slot * 3 + 3,
      100.0 * profile.evening_share);
  for (size_t r = 0; r < profile.dominant_devices.size(); ++r) {
    const auto& dom = profile.dominant_devices[r];
    out += StrFormat("  dominant #%zu: device %zu (%s), cor = %.2f\n", r + 1,
                     dom.device_index,
                     simgen::DeviceTypeName(dom.reported_type).c_str(),
                     dom.similarity);
  }
  for (const auto& [name, group] : profile.device_tau_groups) {
    out += StrFormat("  background: %s -> %s tau\n", name.c_str(),
                     TauGroupName(group).c_str());
  }
  return out;
}

}  // namespace homets::core
