#include "core/profiling.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/background.h"
#include "simgen/fleet.h"
#include "ts/time_series.h"

namespace homets::core {
namespace {

// Same grid and bit-identical values (Missing included).
bool SameSeries(const ts::TimeSeries& a, const ts::TimeSeries& b) {
  return a.start_minute() == b.start_minute() &&
         a.step_minutes() == b.step_minutes() && a.size() == b.size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.size() * sizeof(double)) == 0;
}

simgen::GatewayTrace MakeGateway(int id = 0, uint64_t seed = 77) {
  simgen::SimConfig config;
  config.n_gateways = id + 1;
  config.weeks = 3;
  config.seed = seed;
  config.long_outage_prob = 0.0;
  config.unreliable_daily_prob = 0.0;
  return simgen::FleetGenerator(config).Generate(id);
}

TEST(ProfilingTest, ProducesCompleteProfile) {
  const auto gw = MakeGateway();
  const auto profile = ProfileGateway(gw).value();
  EXPECT_EQ(profile.gateway_id, gw.id);
  EXPECT_GE(profile.devices_observed, 1u);
  EXPECT_GE(profile.min_residents, 1u);
  EXPECT_GE(profile.quietest_slot, 0);
  EXPECT_LT(profile.quietest_slot, 8);
  EXPECT_GE(profile.evening_share, 0.0);
  EXPECT_LE(profile.evening_share, 1.0);
  EXPECT_FALSE(profile.device_tau_groups.empty());
}

TEST(ProfilingTest, MinResidentsLowerBoundsDominants) {
  const auto gw = MakeGateway(2, 91);
  const auto profile = ProfileGateway(gw).value();
  EXPECT_GE(profile.min_residents,
            std::max<size_t>(1, profile.dominant_devices.size()));
}

TEST(ProfilingTest, QuietestSlotIsNight) {
  // Behavior profiles concentrate usage in the day/evening, so the quietest
  // slot should be in the small hours for most homes.
  size_t night_count = 0, total = 0;
  for (int id = 0; id < 6; ++id) {
    const auto profile = ProfileGateway(MakeGateway(id, 101)).value();
    ++total;
    if (profile.quietest_slot <= 2) ++night_count;  // 00:00–09:00
  }
  EXPECT_GT(night_count, total / 2);
}

TEST(ProfilingTest, EmptyGatewayErrors) {
  simgen::GatewayTrace empty;
  EXPECT_FALSE(ProfileGateway(empty).ok());
}

TEST(ProfilingTest, FormatContainsKeyFacts) {
  const auto profile = ProfileGateway(MakeGateway()).value();
  const std::string report = FormatProfile(profile);
  EXPECT_NE(report.find("gateway 0"), std::string::npos);
  EXPECT_NE(report.find("maintenance window"), std::string::npos);
  EXPECT_NE(report.find("weekly pattern"), std::string::npos);
  if (!profile.dominant_devices.empty()) {
    EXPECT_NE(report.find("dominant #1"), std::string::npos);
  }
}

TEST(ProfilingTest, DominanceOptionsRespected) {
  const auto gw = MakeGateway(1, 55);
  ProfilingOptions strict;
  strict.dominance.phi = 0.95;
  const auto strict_profile = ProfileGateway(gw, strict).value();
  const auto default_profile = ProfileGateway(gw).value();
  EXPECT_LE(strict_profile.dominant_devices.size(),
            default_profile.dominant_devices.size());
}


TEST(GatewayPipelineTest, FieldsMatchTheirDefinitions) {
  const simgen::GatewayTrace residents = MakeGateway(1, 55);
  simgen::GatewayTrace gw = residents;
  // A guest seen for 3 minutes: τ cannot be estimated, so the guest enters
  // the active aggregate unfiltered.
  simgen::DeviceTrace guest;
  guest.name = "guest";
  const int64_t start = gw.devices.front().incoming.start_minute();
  guest.incoming = ts::TimeSeries(start, 1, {9000.0, 12000.0, 7000.0});
  guest.outgoing = ts::TimeSeries(start, 1, {100.0, 200.0, 300.0});
  gw.devices.push_back(guest);

  const GatewayPipeline pipeline = BuildGatewayPipeline(gw);
  ASSERT_EQ(pipeline.backgrounds.size(), gw.devices.size());
  ASSERT_EQ(pipeline.device_totals.size(), gw.devices.size());
  for (size_t d = 0; d < residents.devices.size(); ++d) {
    const auto expected = EstimateDeviceBackground(gw.devices[d]).value();
    ASSERT_TRUE(pipeline.backgrounds[d].ok());
    EXPECT_DOUBLE_EQ(pipeline.backgrounds[d]->incoming.tau,
                     expected.incoming.tau);
    EXPECT_DOUBLE_EQ(pipeline.backgrounds[d]->outgoing.tau,
                     expected.outgoing.tau);
  }
  EXPECT_FALSE(pipeline.backgrounds.back().ok());
  for (size_t d = 0; d < gw.devices.size(); ++d) {
    EXPECT_TRUE(SameSeries(pipeline.device_totals[d],
                           gw.devices[d].TotalTraffic()));
  }
  EXPECT_TRUE(SameSeries(pipeline.aggregate, gw.AggregateTraffic()));

  const ts::TimeSeries without_guest = ActiveAggregate(residents);
  ASSERT_EQ(pipeline.active.start_minute(), without_guest.start_minute());
  const double before = without_guest[0];
  EXPECT_DOUBLE_EQ(pipeline.active[0],
                   ts::TimeSeries::IsMissing(before) ? 9100.0
                                                     : before + 9100.0);
}

TEST(GatewayPipelineTest, SilentGatewayHasWindowsButNoProfile) {
  simgen::GatewayTrace silent;
  simgen::DeviceTrace ghost;
  ghost.name = "ghost";
  ghost.incoming = ts::TimeSeries(
      0, 1, std::vector<double>(2 * ts::kMinutesPerDay,
                                ts::TimeSeries::Missing()));
  ghost.outgoing = ghost.incoming;
  silent.devices.push_back(ghost);
  const GatewayPipeline pipeline = BuildGatewayPipeline(silent);
  EXPECT_FALSE(pipeline.backgrounds[0].ok());
  EXPECT_EQ(pipeline.active.size(), 2u * ts::kMinutesPerDay);
  EXPECT_EQ(pipeline.active.CountObserved(), 0u);
  EXPECT_FALSE(ProfileGateway(silent, pipeline).ok());
  EXPECT_EQ(ts::AggregateWindows(pipeline.active, 180, ts::kMinutesPerDay, 0)
                .size(),
            2u);
}

}  // namespace
}  // namespace homets::core
