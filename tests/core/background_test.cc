#include "core/background.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/profiling.h"
#include "core/similarity.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "simgen/fleet.h"
#include "stats/boxplot.h"

namespace homets::core {
namespace {

ts::TimeSeries BackgroundWithBursts(double base, double burst, size_t n,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) {
    x = rng.LogNormal(std::log(base), 0.6);
    if (rng.Bernoulli(0.01)) x += burst;
  }
  return ts::TimeSeries(0, 1, std::move(v));
}

// τ of one series, gathered in a buffer of its own.
Result<BackgroundThreshold> Tau(const ts::TimeSeries& traffic) {
  std::vector<double> scratch;
  return EstimateBackgroundThreshold(traffic, &scratch);
}

// ActiveTraffic into a fresh series.
Result<ts::TimeSeries> Active(const simgen::DeviceTrace& device,
                              const DeviceBackground& background) {
  ts::TimeSeries active;
  HOMETS_RETURN_IF_ERROR(ActiveTraffic(device, background, &active));
  return active;
}

TEST(TauGroupTest, PaperBoundaries) {
  EXPECT_EQ(ClassifyTau(100.0), TauGroup::kSmall);
  EXPECT_EQ(ClassifyTau(5000.0), TauGroup::kSmall);
  EXPECT_EQ(ClassifyTau(5000.1), TauGroup::kMedium);
  EXPECT_EQ(ClassifyTau(40000.0), TauGroup::kMedium);
  EXPECT_EQ(ClassifyTau(40001.0), TauGroup::kLarge);
  EXPECT_EQ(TauGroupName(TauGroup::kSmall), "small");
  EXPECT_EQ(TauGroupName(TauGroup::kMedium), "medium");
  EXPECT_EQ(TauGroupName(TauGroup::kLarge), "large");
}

TEST(BackgroundThresholdTest, TauSeparatesBackgroundFromBursts) {
  const auto traffic = BackgroundWithBursts(300.0, 1e6, 5000, 1);
  const auto bg = Tau(traffic).value();
  EXPECT_GT(bg.tau, 300.0);   // above the background median
  EXPECT_LT(bg.tau, 1e5);     // far below burst scale
}

TEST(BackgroundThresholdTest, TauBackCappedAt5000) {
  // A chatty fixed device with high background: τ_back caps at 5000.
  const auto traffic = BackgroundWithBursts(30000.0, 1e7, 5000, 2);
  const auto bg = Tau(traffic).value();
  EXPECT_GT(bg.tau, kBackgroundCapBytes);
  EXPECT_DOUBLE_EQ(bg.tau_back, kBackgroundCapBytes);
}

TEST(BackgroundThresholdTest, LowBackgroundTauBackIsTau) {
  const auto traffic = BackgroundWithBursts(100.0, 1e6, 5000, 3);
  const auto bg = Tau(traffic).value();
  if (bg.tau < kBackgroundCapBytes) {
    EXPECT_DOUBLE_EQ(bg.tau_back, bg.tau);
  }
}

TEST(BackgroundThresholdTest, GroupAssignedFromTau) {
  const auto low = Tau(BackgroundWithBursts(100.0, 1e6, 3000, 4)).value();
  EXPECT_EQ(low.group, TauGroup::kSmall);
  const auto high = Tau(BackgroundWithBursts(50000.0, 1e7, 3000, 5)).value();
  EXPECT_EQ(high.group, TauGroup::kLarge);
}

TEST(BackgroundThresholdTest, MissingValuesIgnored) {
  auto traffic = BackgroundWithBursts(200.0, 1e6, 1000, 6);
  for (size_t i = 0; i < traffic.size(); i += 7) {
    traffic[i] = ts::TimeSeries::Missing();
  }
  const auto bg = Tau(traffic).value();
  EXPECT_LT(bg.observations, 1000u);
  EXPECT_GT(bg.tau, 0.0);
}

TEST(BackgroundThresholdTest, TooFewObservationsError) {
  ts::TimeSeries tiny(0, 1, {1, 2, 3});
  EXPECT_FALSE(Tau(tiny).ok());
}

TEST(BackgroundThresholdTest, TauMatchesFullBoxplotOnFleet) {
  // τ comes from stats::UpperWhisker (selection, no sort); on every device
  // direction of a simgen fleet it must be the full boxplot's whisker bits.
  simgen::SimConfig config;
  config.n_gateways = 6;
  config.weeks = 2;
  config.seed = 4243;
  simgen::FleetGenerator gen(config);
  size_t checked = 0;
  for (int id = 0; id < config.n_gateways; ++id) {
    const auto gw = gen.Generate(id);
    for (const auto& device : gw.devices) {
      for (const ts::TimeSeries* series :
           {&device.incoming, &device.outgoing}) {
        std::vector<double> observed = series->ObservedValues();
        if (observed.empty()) continue;
        const double boxplot =
            stats::ComputeBoxplot(observed).value().upper_whisker;
        const double tau = stats::UpperWhisker(observed).value();
        EXPECT_EQ(std::memcmp(&tau, &boxplot, sizeof(double)), 0)
            << device.name << ": " << tau << " vs " << boxplot;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 20u);
}

TEST(BackgroundThresholdTest, PinnedFleetThresholds) {
  // τ, τ_back and the group of every device direction of one seeded fleet,
  // as the sort-based boxplot computed them (hex literals: exact bits).
  enum Direction { kIn, kOut };
  struct Pin {
    int gateway;
    size_t device;
    Direction direction;
    double tau;
    double tau_back;
    TauGroup group;
    size_t observations;
  };
  const std::vector<Pin> pins = {
      {0, 0, kIn, 0x1.a352b55c12f8fp+7, 0x1.a352b55c12f8fp+7,
       TauGroup::kSmall, 16440},
      {0, 0, kOut, 0x1.3f980f25669b1p+6, 0x1.3f980f25669b1p+6,
       TauGroup::kSmall, 16440},
      {0, 1, kIn, 0x1.09608dc30fa4dp+9, 0x1.09608dc30fa4dp+9,
       TauGroup::kSmall, 16320},
      {0, 1, kOut, 0x1.110e08833f80ep+6, 0x1.110e08833f80ep+6,
       TauGroup::kSmall, 16320},
      {1, 0, kIn, 0x1.fc63d9a1ad23bp+6, 0x1.fc63d9a1ad23bp+6,
       TauGroup::kSmall, 20160},
      {1, 0, kOut, 0x1.91ddca79d1d13p+5, 0x1.91ddca79d1d13p+5,
       TauGroup::kSmall, 20160},
      {1, 1, kIn, 0x1.0333220bc0565p+9, 0x1.0333220bc0565p+9,
       TauGroup::kSmall, 20160},
      {1, 1, kOut, 0x1.8113705846191p+6, 0x1.8113705846191p+6,
       TauGroup::kSmall, 20160},
      {1, 2, kIn, 0x1.7f6068aa85618p+5, 0x1.7f6068aa85618p+5,
       TauGroup::kSmall, 300},
      {1, 2, kOut, 0x1.343a7123f4d5p+4, 0x1.343a7123f4d5p+4,
       TauGroup::kSmall, 300},
      {1, 3, kIn, 0x1.4437e737c247cp+7, 0x1.4437e737c247cp+7,
       TauGroup::kSmall, 300},
      {1, 3, kOut, 0x1.4ddaff4330a0bp+6, 0x1.4ddaff4330a0bp+6,
       TauGroup::kSmall, 300},
      {1, 4, kIn, 0x1.d6c90533311ecp+7, 0x1.d6c90533311ecp+7,
       TauGroup::kSmall, 240},
      {1, 4, kOut, 0x1.1616353472154p+6, 0x1.1616353472154p+6,
       TauGroup::kSmall, 240},
      {2, 0, kIn, 0x1.7f9572b2930c2p+6, 0x1.7f9572b2930c2p+6,
       TauGroup::kSmall, 17280},
      {2, 0, kOut, 0x1.b9ca5a6b6cdcfp+4, 0x1.b9ca5a6b6cdcfp+4,
       TauGroup::kSmall, 17280},
      {2, 1, kIn, 0x1.6012bf223778bp+7, 0x1.6012bf223778bp+7,
       TauGroup::kSmall, 17280},
      {2, 1, kOut, 0x1.2b40cfc38d0a2p+6, 0x1.2b40cfc38d0a2p+6,
       TauGroup::kSmall, 17280},
      {2, 2, kIn, 0x1.4dc230214a6dbp+12, 0x1.388p+12,
       TauGroup::kMedium, 17280},
      {2, 2, kOut, 0x1.a69134a89c1c9p+11, 0x1.a69134a89c1c9p+11,
       TauGroup::kSmall, 17280},
  };
  simgen::SimConfig config;
  config.n_gateways = 3;
  config.weeks = 2;
  config.seed = 4242;
  simgen::FleetGenerator gen(config);
  size_t next = 0;
  for (int id = 0; id < config.n_gateways; ++id) {
    const auto gw = gen.Generate(id);
    for (size_t d = 0; d < gw.devices.size(); ++d) {
      for (const Direction direction : {kIn, kOut}) {
        ASSERT_LT(next, pins.size());
        const Pin& pin = pins[next++];
        ASSERT_EQ(pin.gateway, id);
        ASSERT_EQ(pin.device, d);
        ASSERT_EQ(pin.direction, direction);
        const auto bg = Tau(direction == kIn ? gw.devices[d].incoming
                                             : gw.devices[d].outgoing)
                            .value();
        SCOPED_TRACE(next);
        EXPECT_EQ(std::memcmp(&bg.tau, &pin.tau, sizeof(double)), 0)
            << bg.tau << " vs " << pin.tau;
        EXPECT_EQ(std::memcmp(&bg.tau_back, &pin.tau_back, sizeof(double)), 0)
            << bg.tau_back << " vs " << pin.tau_back;
        EXPECT_EQ(bg.group, pin.group);
        EXPECT_EQ(bg.observations, pin.observations);
      }
    }
  }
  EXPECT_EQ(next, pins.size());
}

TEST(DeviceBackgroundTest, PerDirectionEstimates) {
  simgen::DeviceTrace dev;
  dev.incoming = BackgroundWithBursts(400.0, 2e6, 2000, 7);
  dev.outgoing = BackgroundWithBursts(80.0, 2e5, 2000, 8);
  const auto bg = EstimateDeviceBackground(dev).value();
  EXPECT_GT(bg.incoming.tau, bg.outgoing.tau);
}

TEST(ActiveTrafficTest, RemovesBackgroundKeepsBursts) {
  simgen::DeviceTrace dev;
  dev.incoming = BackgroundWithBursts(300.0, 1e6, 5000, 9);
  dev.outgoing = BackgroundWithBursts(50.0, 1e5, 5000, 10);
  const auto active =
      Active(dev, EstimateDeviceBackground(dev).value()).value();
  size_t zeros = 0, bursts = 0, observed = 0;
  for (double v : active.values()) {
    if (ts::TimeSeries::IsMissing(v)) continue;
    ++observed;
    if (v == 0.0) ++zeros;
    if (v > 1e5) ++bursts;
  }
  // Most minutes are background → zeroed; bursts survive.
  EXPECT_GT(static_cast<double>(zeros) / observed, 0.8);
  EXPECT_GT(bursts, 10u);
}

TEST(ActiveTrafficTest, ActiveNeverExceedsRaw) {
  simgen::DeviceTrace dev;
  dev.incoming = BackgroundWithBursts(300.0, 1e6, 2000, 11);
  dev.outgoing = BackgroundWithBursts(60.0, 1e5, 2000, 12);
  const auto active =
      Active(dev, EstimateDeviceBackground(dev).value()).value();
  const auto raw = dev.TotalTraffic();
  for (size_t i = 0; i < active.size(); ++i) {
    if (ts::TimeSeries::IsMissing(active[i])) continue;
    EXPECT_LE(active[i], raw[i] + 1e-9);
  }
}

// The two-step definition ActiveTraffic computes in one pass: each
// direction clipped below its τ_back (missing stays missing), then Add.
ts::TimeSeries ClipBelow(const ts::TimeSeries& series, double tau_back) {
  std::vector<double> values = series.values();
  for (double& v : values) {
    if (!ts::TimeSeries::IsMissing(v) && v < tau_back) v = 0.0;
  }
  return ts::TimeSeries(series.start_minute(), series.step_minutes(),
                        std::move(values));
}

/// Observed values the clip changes: below τ_back and not already zero.
uint64_t ValuesClipped(const ts::TimeSeries& series, double tau_back) {
  uint64_t n = 0;
  for (const double v : series.values()) {
    if (!ts::TimeSeries::IsMissing(v) && v != 0.0 && v < tau_back) ++n;
  }
  return n;
}

uint64_t ValuesZeroedCounter() {
  return obs::MetricsRegistry::Global()
      .GetCounter(obs::kBackgroundValuesZeroed)
      ->Value();
}

/// ActiveTraffic equals ClipBelow + Add bit for bit (missing matches
/// missing), and the values_zeroed delta equals the values clipped.
void ExpectActiveMatchesReference(const simgen::DeviceTrace& dev,
                                  const DeviceBackground& bg) {
  const auto want =
      ts::TimeSeries::Add(ClipBelow(dev.incoming, bg.incoming.tau_back),
                          ClipBelow(dev.outgoing, bg.outgoing.tau_back));
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  const uint64_t before = ValuesZeroedCounter();
  const auto got = Active(dev, bg);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(ValuesZeroedCounter() - before,
            ValuesClipped(dev.incoming, bg.incoming.tau_back) +
                ValuesClipped(dev.outgoing, bg.outgoing.tau_back));
  ASSERT_EQ(got->start_minute(), want->start_minute());
  ASSERT_EQ(got->step_minutes(), want->step_minutes());
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    if (ts::TimeSeries::IsMissing((*want)[i])) {
      EXPECT_TRUE(ts::TimeSeries::IsMissing((*got)[i])) << "bin " << i;
    } else {
      EXPECT_EQ(std::memcmp(&got->values()[i], &want->values()[i],
                            sizeof(double)),
                0)
          << "bin " << i << ": " << (*got)[i] << " vs " << (*want)[i];
    }
  }
}

DeviceBackground Taus(double in_tau_back, double out_tau_back) {
  DeviceBackground bg;
  bg.incoming.tau_back = in_tau_back;
  bg.outgoing.tau_back = out_tau_back;
  return bg;
}

TEST(ActiveTrafficTest, MatchesClipThenAddOnDifferingSpans) {
  const double nan = ts::TimeSeries::Missing();
  simgen::DeviceTrace dev;
  // Values equal to τ_back stay; zeros and -0.0 are zeroed without counting.
  dev.incoming = ts::TimeSeries(
      0, 1, {100.0, 4999.0, 5000.0, nan, 0.0, -0.0, 7000.0, nan});
  dev.outgoing = ts::TimeSeries(3, 1, {nan, 20.0, 30.0, 6000.0, 1.0, nan,
                                       29.999, 30.0, nan});
  ExpectActiveMatchesReference(dev, Taus(5000.0, 30.0));
  // Outgoing first, with a gap between the two spans.
  std::swap(dev.incoming, dev.outgoing);
  dev.outgoing = ts::TimeSeries(20, 1, {5.0, nan, 5000.0});
  ExpectActiveMatchesReference(dev, Taus(30.0, 5000.0));
  // Coarser step, outgoing inside incoming.
  dev.incoming = ts::TimeSeries(60, 15, {1.0, 50.0, nan, 49.0, 51.0});
  dev.outgoing = ts::TimeSeries(75, 15, {nan, 60.0});
  ExpectActiveMatchesReference(dev, Taus(50.0, 60.0));
  // An empty direction still sits on Add's grid (its start counts).
  dev.outgoing = ts::TimeSeries(15, 15, {});
  ExpectActiveMatchesReference(dev, Taus(50.0, 60.0));
}

TEST(ActiveTrafficTest, MatchesClipThenAddOnFleetDevices) {
  simgen::SimConfig config;
  config.n_gateways = 3;
  config.weeks = 2;
  config.seed = 4242;
  const simgen::FleetGenerator gen(config);
  for (int id = 0; id < config.n_gateways; ++id) {
    const auto gw = gen.Generate(id);
    for (const simgen::DeviceTrace& dev : gw.devices) {
      const auto bg = EstimateDeviceBackground(dev);
      if (!bg.ok()) continue;
      SCOPED_TRACE(dev.name);
      ExpectActiveMatchesReference(dev, *bg);
    }
  }
}

TEST(ActiveTrafficTest, StepOrPhaseMismatchReturnsAddsError) {
  simgen::DeviceTrace dev;
  dev.incoming = ts::TimeSeries(0, 2, {1.0, 2.0});
  for (const ts::TimeSeries& outgoing :
       {ts::TimeSeries(0, 1, {1.0}), ts::TimeSeries(1, 2, {1.0})}) {
    dev.outgoing = outgoing;
    const auto want = ts::TimeSeries::Add(dev.incoming, dev.outgoing);
    const uint64_t before = ValuesZeroedCounter();
    const auto got = Active(dev, Taus(10.0, 10.0));
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message(), want.status().message());
    EXPECT_EQ(ValuesZeroedCounter(), before);
  }
}

TEST(ActiveAggregateTest, FleetGatewayProducesActiveSeries) {
  simgen::SimConfig config;
  config.n_gateways = 2;
  config.weeks = 1;
  config.seed = 21;
  const auto gw = simgen::FleetGenerator(config).Generate(0);
  const auto active = ActiveAggregate(gw);
  ASSERT_FALSE(active.empty());
  // Active mass is a strict subset of raw mass.
  EXPECT_LT(active.Sum(), gw.AggregateTraffic().Sum());
  EXPECT_GT(active.Sum(), 0.0);
}

// A device with fewer than 8 outgoing observations has no τ, so it enters
// the active aggregate as its whole TotalTraffic(). ActiveAggregate(trace)
// computes that total itself; the pipeline takes it from its device_totals.
// Both must give the clip-then-Add sum of the other devices plus that total,
// bit for bit.
TEST(ActiveAggregateTest, ShortDirectionDeviceEntersAsItsTotal) {
  simgen::SimConfig config;
  config.n_gateways = 2;
  config.weeks = 2;
  config.seed = 23;
  simgen::GatewayTrace gw = simgen::FleetGenerator(config).Generate(0);
  ASSERT_GE(gw.devices.size(), 2u);
  size_t kept = 0;
  for (double& v : gw.devices[0].outgoing.mutable_values()) {
    if (ts::TimeSeries::IsMissing(v)) continue;
    if (++kept > 5) v = ts::TimeSeries::Missing();
  }
  ASSERT_FALSE(EstimateDeviceBackground(gw.devices[0]).ok());

  ts::TimeSeries want;
  for (const simgen::DeviceTrace& dev : gw.devices) {
    const auto bg = EstimateDeviceBackground(dev);
    if (!bg.ok()) {
      ts::AddInto(&want, dev.TotalTraffic());
      continue;
    }
    const auto part =
        ts::TimeSeries::Add(ClipBelow(dev.incoming, bg->incoming.tau_back),
                            ClipBelow(dev.outgoing, bg->outgoing.tau_back));
    ASSERT_TRUE(part.ok());
    ts::AddInto(&want, *part);
  }
  const auto same_bits = [](const ts::TimeSeries& a, const ts::TimeSeries& b) {
    return a.start_minute() == b.start_minute() &&
           a.step_minutes() == b.step_minutes() && a.size() == b.size() &&
           std::memcmp(a.values().data(), b.values().data(),
                       a.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same_bits(ActiveAggregate(gw), want));
  GatewayWorkspace workspace;
  BuildGatewayPipeline(gw, &workspace);
  EXPECT_FALSE(workspace.pipeline.backgrounds[0].ok());
  EXPECT_TRUE(same_bits(workspace.pipeline.active, want));
}

TEST(ActiveAggregateTest, RevealsMoreRegularity) {
  // Removing background raises the week-over-week correlation — the paper's
  // Section 7 observation (7% → 11% stationary gateways).
  simgen::SimConfig config;
  config.n_gateways = 6;
  config.weeks = 3;  // two full 2am-anchored weekly windows need > 2 weeks
  config.seed = 22;
  config.long_outage_prob = 0.0;
  config.unreliable_daily_prob = 0.0;
  simgen::FleetGenerator gen(config);
  double raw_cor = 0.0, active_cor = 0.0;
  int counted = 0;
  for (int id = 0; id < config.n_gateways; ++id) {
    const auto gw = gen.Generate(id);
    const auto split = [&](const ts::TimeSeries& s) {
      auto agg = ts::Aggregate(s, 480, 120, ts::AggKind::kSum);
      return ts::SliceWindows(*agg, ts::kMinutesPerWeek, 120);
    };
    const auto raw_weeks = split(gw.AggregateTraffic());
    const auto act_weeks = split(ActiveAggregate(gw));
    if (raw_weeks.size() < 2 || act_weeks.size() < 2) continue;
    raw_cor += CorrelationSimilarity(raw_weeks[0].values(),
                                     raw_weeks[1].values())
                   .value;
    active_cor += CorrelationSimilarity(act_weeks[0].values(),
                                        act_weeks[1].values())
                      .value;
    ++counted;
  }
  ASSERT_GT(counted, 3);
  // Averaged over gateways, active correlation should not be much below raw
  // (usually above); allow slack for randomness.
  EXPECT_GT(active_cor / counted, raw_cor / counted - 0.25);
}

}  // namespace
}  // namespace homets::core
