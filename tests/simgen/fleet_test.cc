#include "simgen/fleet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "correlation/coefficients.h"

namespace homets::simgen {
namespace {

SimConfig SmallConfig() {
  SimConfig config;
  config.n_gateways = 12;
  config.weeks = 2;
  config.seed = 7;
  config.surveyed_gateways = 4;
  return config;
}

TEST(FleetGeneratorTest, DeterministicAcrossInstances) {
  const SimConfig config = SmallConfig();
  FleetGenerator a(config);
  FleetGenerator b(config);
  const GatewayTrace ga = a.Generate(3);
  const GatewayTrace gb = b.Generate(3);
  ASSERT_EQ(ga.devices.size(), gb.devices.size());
  for (size_t d = 0; d < ga.devices.size(); ++d) {
    ASSERT_EQ(ga.devices[d].incoming.size(), gb.devices[d].incoming.size());
    for (size_t i = 0; i < ga.devices[d].incoming.size(); i += 997) {
      const double va = ga.devices[d].incoming[i];
      const double vb = gb.devices[d].incoming[i];
      if (std::isnan(va)) {
        EXPECT_TRUE(std::isnan(vb));
      } else {
        EXPECT_DOUBLE_EQ(va, vb);
      }
    }
  }
}

TEST(FleetGeneratorTest, GenerationOrderIndependent) {
  FleetGenerator gen(SmallConfig());
  const GatewayTrace first = gen.Generate(5);
  (void)gen.Generate(0);
  (void)gen.Generate(9);
  const GatewayTrace again = gen.Generate(5);
  ASSERT_EQ(first.devices.size(), again.devices.size());
  EXPECT_DOUBLE_EQ(first.AggregateTraffic().Sum(),
                   again.AggregateTraffic().Sum());
}

TEST(FleetGeneratorTest, DifferentSeedsDifferentFleets) {
  SimConfig c1 = SmallConfig();
  SimConfig c2 = SmallConfig();
  c2.seed = 8;
  const double sum1 = FleetGenerator(c1).Generate(0).AggregateTraffic().Sum();
  const double sum2 = FleetGenerator(c2).Generate(0).AggregateTraffic().Sum();
  EXPECT_NE(sum1, sum2);
}

TEST(FleetGeneratorTest, TraceShape) {
  FleetGenerator gen(SmallConfig());
  const GatewayTrace gw = gen.Generate(1);
  EXPECT_EQ(gw.id, 1);
  EXPECT_GE(gw.devices.size(), 1u);
  for (const auto& dev : gw.devices) {
    EXPECT_EQ(dev.incoming.start_minute(), 0);
    EXPECT_EQ(dev.incoming.step_minutes(), 1);
    EXPECT_EQ(dev.incoming.size(),
              static_cast<size_t>(SmallConfig().HorizonMinutes()));
    EXPECT_EQ(dev.outgoing.size(), dev.incoming.size());
    EXPECT_FALSE(dev.name.empty());
  }
}

TEST(FleetGeneratorTest, TrafficNonNegativeAndBounded) {
  FleetGenerator gen(SmallConfig());
  for (int id = 0; id < 4; ++id) {
    const GatewayTrace gw = gen.Generate(id);
    for (const auto& dev : gw.devices) {
      for (double v : dev.incoming.values()) {
        if (std::isnan(v)) continue;
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 3.0e7);
      }
    }
  }
}

TEST(FleetGeneratorTest, SurveySubsetHasResidentCounts) {
  FleetGenerator gen(SmallConfig());
  for (int id = 0; id < 12; ++id) {
    const GatewayTrace gw = gen.Generate(id);
    if (id < 4) {
      ASSERT_TRUE(gw.surveyed_residents.has_value());
      EXPECT_GE(*gw.surveyed_residents, 1);
      EXPECT_LE(*gw.surveyed_residents, 4);
    } else {
      EXPECT_FALSE(gw.surveyed_residents.has_value());
    }
  }
}

TEST(FleetGeneratorTest, InOutStronglyCorrelated) {
  // Section 4.1(b): incoming and outgoing gateway traffic correlate around
  // 0.92 on the real fleet.
  SimConfig config = SmallConfig();
  config.n_gateways = 8;
  FleetGenerator gen(config);
  double sum_cor = 0.0;
  int counted = 0;
  for (int id = 0; id < config.n_gateways; ++id) {
    const GatewayTrace gw = gen.Generate(id);
    const auto in = gw.AggregateIncoming();
    const auto out = gw.AggregateOutgoing();
    const auto r = correlation::Pearson(in.values(), out.values());
    if (!r.ok()) continue;
    sum_cor += r->coefficient;
    ++counted;
  }
  ASSERT_GT(counted, 4);
  EXPECT_GT(sum_cor / counted, 0.75);
}

TEST(FleetGeneratorTest, BackgroundDominatesMinutes) {
  // Most minutes must be low-valued background (Zipf-like mass near zero),
  // measured across several gateways to avoid single-home luck.
  FleetGenerator gen(SmallConfig());
  size_t low = 0, observed = 0;
  for (int id = 0; id < 6; ++id) {
    const auto agg = gen.Generate(id).AggregateTraffic();
    for (double v : agg.values()) {
      if (std::isnan(v)) continue;
      ++observed;
      if (v < 100000.0) ++low;
    }
  }
  ASSERT_GT(observed, 5000u);
  EXPECT_GT(static_cast<double>(low) / static_cast<double>(observed), 0.6);
}

TEST(FleetGeneratorTest, DeviceLevelBackgroundDominates) {
  // At the device level the active minutes are rare enough to appear as
  // boxplot outliers (the Figure 1 shape).
  FleetGenerator gen(SmallConfig());
  size_t low = 0, observed = 0;
  for (int id = 0; id < 6; ++id) {
    for (const auto& dev : gen.Generate(id).devices) {
      for (double v : dev.incoming.values()) {
        if (std::isnan(v)) continue;
        ++observed;
        if (v < 50000.0) ++low;
      }
    }
  }
  ASSERT_GT(observed, 5000u);
  EXPECT_GT(static_cast<double>(low) / static_cast<double>(observed), 0.75);
}

TEST(FleetGeneratorTest, ActiveBurstsExist) {
  FleetGenerator gen(SmallConfig());
  bool found_burst = false;
  for (int id = 0; id < 6 && !found_burst; ++id) {
    const auto agg = gen.Generate(id).AggregateTraffic();
    for (double v : agg.values()) {
      if (!std::isnan(v) && v > 1.0e6) {
        found_burst = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_burst);
}

TEST(FleetGeneratorTest, DeviceTypesPresentAcrossFleet) {
  SimConfig config = SmallConfig();
  config.n_gateways = 30;
  FleetGenerator gen(config);
  std::set<DeviceType> seen;
  for (int id = 0; id < config.n_gateways; ++id) {
    for (const auto& dev : gen.Generate(id).devices) {
      seen.insert(dev.true_type);
    }
  }
  EXPECT_TRUE(seen.count(DeviceType::kPortable));
  EXPECT_TRUE(seen.count(DeviceType::kFixed));
  // True types never include the unlabeled marker.
  EXPECT_FALSE(seen.count(DeviceType::kUnlabeled));
}

TEST(FleetGeneratorTest, LabelNoiseProducesUnlabeledDevices) {
  SimConfig config = SmallConfig();
  config.n_gateways = 30;
  FleetGenerator gen(config);
  size_t unlabeled = 0, total = 0;
  for (int id = 0; id < config.n_gateways; ++id) {
    for (const auto& dev : gen.Generate(id).devices) {
      ++total;
      if (dev.reported_type == DeviceType::kUnlabeled) ++unlabeled;
    }
  }
  const double fraction = static_cast<double>(unlabeled) /
                          static_cast<double>(total);
  EXPECT_GT(fraction, 0.1);
  EXPECT_LT(fraction, 0.45);
}

TEST(FleetGeneratorTest, DropoutProducesIneligibleGateways) {
  SimConfig config;
  config.n_gateways = 60;
  config.weeks = 4;
  config.seed = 11;
  FleetGenerator gen(config);
  int weekly_ok = 0, daily_ok = 0;
  for (int id = 0; id < config.n_gateways; ++id) {
    const GatewayTrace gw = gen.Generate(id);
    if (gw.HasObservationEveryWeek(0, config.weeks)) ++weekly_ok;
    if (gw.HasObservationEveryDay(0, config.weeks * 7)) ++daily_ok;
  }
  // Paper ratios: 153/196 ≈ 78% weekly, 100/196 ≈ 51% daily.
  EXPECT_GT(weekly_ok, 30);
  EXPECT_LT(weekly_ok, 60);
  EXPECT_GT(daily_ok, 15);
  EXPECT_LE(daily_ok, weekly_ok);
}

TEST(FleetGeneratorTest, EveningActivityExceedsNightQuietHours) {
  // Aggregate fleet activity at 20:00 should exceed 04:00 — the circadian
  // pattern every behavior profile encodes.
  SimConfig config = SmallConfig();
  config.n_gateways = 10;
  FleetGenerator gen(config);
  double evening = 0.0, night = 0.0;
  for (int id = 0; id < config.n_gateways; ++id) {
    const auto agg = gen.Generate(id).AggregateTraffic();
    for (size_t i = 0; i < agg.size(); ++i) {
      const double v = agg[i];
      if (std::isnan(v)) continue;
      const int hour = static_cast<int>(ts::MinuteOfDay(agg.MinuteAt(i)) /
                                        ts::kMinutesPerHour);
      if (hour == 20) evening += v;
      if (hour == 4) night += v;
    }
  }
  EXPECT_GT(evening, 2.0 * night);
}

}  // namespace
}  // namespace homets::simgen
