// Full motif-mining pipeline on a small fleet: eligibility filtering →
// background removal → best-aggregation selection (Definition 3) → daily
// motif discovery (Definition 5) → per-motif characterization — the analysis
// of Sections 6 and 7 end to end.
#include <iostream>
#include <map>

#include "core/aggregation.h"
#include "core/background.h"
#include "core/dominance.h"
#include "core/motif.h"
#include "core/motif_analysis.h"
#include "simgen/fleet.h"

int main() {
  using namespace homets;  // NOLINT: example binary

  simgen::SimConfig config;
  config.n_gateways = 32;
  config.weeks = 4;
  config.seed = 20140317;
  simgen::FleetGenerator generator(config);
  const int days = config.weeks * 7;

  // Stage 1: keep gateways reporting every day, strip background traffic.
  std::map<int, simgen::GatewayTrace> fleet;
  std::vector<ts::TimeSeries> active;
  for (int id = 0; id < config.n_gateways; ++id) {
    auto gw = generator.Generate(id);
    if (!gw.HasObservationEveryDay(0, days)) continue;
    active.push_back(core::ActiveAggregate(gw));
    fleet.emplace(id, std::move(gw));
  }
  std::cout << "eligible gateways: " << fleet.size() << " of "
            << config.n_gateways << "\n";

  // Stage 2: pick the best daily aggregation granularity (Definition 3).
  core::AggregationSweepOptions sweep_options;
  sweep_options.period = core::PatternPeriod::kDaily;
  const auto sweep = core::SweepAggregations(
      active, {30, 60, 90, 120, 180}, sweep_options);
  int64_t granularity = 180;
  if (sweep.ok()) {
    const auto best = core::BestGranularity(*sweep, false);
    if (best.ok()) granularity = *best;
    std::cout << "best daily aggregation: " << granularity << " minutes\n";
  }

  // Stage 3: cut daily windows and mine motifs (Definition 5).
  std::vector<ts::TimeSeries> windows;
  std::vector<core::WindowProvenance> provenance;
  size_t active_index = 0;
  for (const auto& [id, gw] : fleet) {
    for (auto& window : ts::AggregateWindows(active[active_index++], granularity,
                                             ts::kMinutesPerDay, 0)) {
      provenance.push_back({id, window.start_minute()});
      windows.push_back(std::move(window));
    }
  }
  const auto motifs = core::MotifDiscovery().Discover(windows);
  if (!motifs.ok()) {
    std::cout << "motif discovery failed: " << motifs.status().ToString()
              << "\n";
    return 1;
  }
  std::cout << "daily motifs: " << motifs->size() << " from "
            << windows.size() << " gateway-days\n";

  // Stage 4: characterize the strongest motif.
  if (!motifs->empty()) {
    const auto& top = motifs->front();
    std::map<int, std::vector<core::DominantDevice>> overall;
    for (size_t member : top.members) {
      const int id = provenance[member].gateway_id;
      if (!overall.count(id)) {
        overall[id] = core::FindDominantDevices(fleet.at(id));
      }
    }
    core::MotifAnalysisOptions options;
    options.granularity_minutes = granularity;
    options.window_minutes = ts::kMinutesPerDay;
    const auto character = core::CharacterizeMotif(
        top, provenance,
        [&fleet](int id) -> const simgen::GatewayTrace* {
          const auto it = fleet.find(id);
          return it == fleet.end() ? nullptr : &it->second;
        },
        overall, options);
    if (character.ok()) {
      std::cout << "\ntop motif: support " << character->support << ", "
                << character->distinct_gateways << " gateways, "
                << 100.0 * character->within_gateway_fraction
                << "% recurring within gateways\n"
                << "  workday windows: " << character->workday_members
                << ", weekend windows: " << character->weekend_members << "\n";
      std::cout << "  dominant device types in motif windows:\n";
      for (const auto& [type, count] : character->dominant_type_counts) {
        std::cout << "    " << simgen::DeviceTypeName(type) << ": " << count
                  << "\n";
      }
    }
  }
  return 0;
}
