#include "io/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "simgen/fleet.h"

namespace homets::io {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// TimeSeriesCsvTest: how one device's time series comes back through the
// long-format gateway CSV.
TEST(TimeSeriesCsvTest, RoundTrip) {
  const std::string path = TempPath("series.csv");
  simgen::GatewayTrace gw;
  simgen::DeviceTrace dev;
  dev.name = "cam";
  dev.incoming =
      ts::TimeSeries(120, 1, {1.5, ts::TimeSeries::Missing(), 3.25});
  dev.outgoing =
      ts::TimeSeries(120, 1, {0.5, ts::TimeSeries::Missing(), 0.75});
  gw.devices.push_back(dev);
  ASSERT_TRUE(WriteGatewayCsv(path, gw).ok());
  const auto loaded = ReadGatewayCsv(path).value();
  ASSERT_EQ(loaded.devices.size(), 1u);
  const ts::TimeSeries& in = loaded.devices[0].incoming;
  EXPECT_EQ(in.start_minute(), 120);
  EXPECT_EQ(in.step_minutes(), 1);
  ASSERT_EQ(in.size(), 3u);
  EXPECT_DOUBLE_EQ(in[0], 1.5);
  EXPECT_TRUE(ts::TimeSeries::IsMissing(in[1]));
  EXPECT_DOUBLE_EQ(in[2], 3.25);
  EXPECT_DOUBLE_EQ(loaded.devices[0].outgoing[2], 0.75);
  std::remove(path.c_str());
}

TEST(TimeSeriesCsvTest, SingleValueSeries) {
  const std::string path = TempPath("single.csv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(
        "device,true_type,reported_type,minute,incoming,outgoing\n"
        "d,fixed,fixed,0,42.0,1.0\n",
        f);
    std::fclose(f);
  }
  const auto loaded = ReadGatewayCsv(path).value();
  ASSERT_EQ(loaded.devices.size(), 1u);
  ASSERT_EQ(loaded.devices[0].incoming.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.devices[0].incoming[0], 42.0);
  std::remove(path.c_str());
}

TEST(TimeSeriesCsvTest, MissingFileErrors) {
  EXPECT_EQ(ReadGatewayCsv("/nonexistent/nope.csv").status().code(),
            StatusCode::kIoError);
}

TEST(TimeSeriesCsvTest, MalformedRowErrors) {
  const std::string path = TempPath("bad.csv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(
        "device,true_type,reported_type,minute,incoming,outgoing\n"
        "d,fixed,fixed,1,2,3,4\n",
        f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadGatewayCsv(path).ok());
  std::remove(path.c_str());
}

TEST(GatewayCsvTest, RoundTripPreservesObservedMinutes) {
  simgen::SimConfig config;
  config.n_gateways = 1;
  config.weeks = 1;
  config.seed = 3;
  config.long_outage_prob = 0.0;  // an all-missing trace writes no rows
  config.unreliable_daily_prob = 0.0;
  const auto gw = simgen::FleetGenerator(config).Generate(0);
  const std::string path = TempPath("gateway.csv");
  ASSERT_TRUE(WriteGatewayCsv(path, gw).ok());
  const auto loaded = ReadGatewayCsv(path).value();
  ASSERT_EQ(loaded.devices.size(), gw.devices.size());
  // Totals agree (missing minutes are not stored but contribute nothing).
  EXPECT_NEAR(loaded.AggregateTraffic().Sum(), gw.AggregateTraffic().Sum(),
              1.0);
  std::remove(path.c_str());
}

TEST(GatewayCsvTest, TypesSurviveRoundTrip) {
  simgen::GatewayTrace gw;
  simgen::DeviceTrace dev;
  dev.name = "laptop";
  dev.true_type = simgen::DeviceType::kFixed;
  dev.reported_type = simgen::DeviceType::kUnlabeled;
  dev.incoming = ts::TimeSeries(0, 1, {1.0, 2.0});
  dev.outgoing = ts::TimeSeries(0, 1, {3.0, 4.0});
  gw.devices.push_back(dev);
  const std::string path = TempPath("typed.csv");
  ASSERT_TRUE(WriteGatewayCsv(path, gw).ok());
  const auto loaded = ReadGatewayCsv(path).value();
  ASSERT_EQ(loaded.devices.size(), 1u);
  EXPECT_EQ(loaded.devices[0].name, "laptop");
  EXPECT_EQ(loaded.devices[0].true_type, simgen::DeviceType::kFixed);
  EXPECT_EQ(loaded.devices[0].reported_type, simgen::DeviceType::kUnlabeled);
  std::remove(path.c_str());
}

TEST(GatewayCsvTest, EmptyFileErrors) {
  const std::string path = TempPath("empty.csv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fclose(f);
  }
  EXPECT_FALSE(ReadGatewayCsv(path).ok());
  std::remove(path.c_str());
}

TEST(GatewayCsvTest, UnknownDeviceTypeErrors) {
  const std::string path = TempPath("badtype.csv");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(
        "device,true_type,reported_type,minute,incoming,outgoing\n"
        "d,teapot,portable,0,1,2\n",
        f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadGatewayCsv(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace homets::io
