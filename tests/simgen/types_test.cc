#include "simgen/types.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace homets::simgen {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

DeviceTrace MakeDevice(const std::string& name, std::vector<double> in,
                       std::vector<double> out,
                       DeviceType type = DeviceType::kPortable) {
  DeviceTrace dev;
  dev.name = name;
  dev.true_type = type;
  dev.reported_type = type;
  dev.incoming = ts::TimeSeries(0, 1, std::move(in));
  dev.outgoing = ts::TimeSeries(0, 1, std::move(out));
  return dev;
}

TEST(DeviceTypeTest, Names) {
  EXPECT_EQ(DeviceTypeName(DeviceType::kPortable), "portable");
  EXPECT_EQ(DeviceTypeName(DeviceType::kFixed), "fixed");
  EXPECT_EQ(DeviceTypeName(DeviceType::kNetworkEquipment),
            "network_equipment");
  EXPECT_EQ(DeviceTypeName(DeviceType::kGameConsole), "game_console");
  EXPECT_EQ(DeviceTypeName(DeviceType::kUnlabeled), "unlabeled");
}

TEST(DeviceTraceTest, TotalTrafficSumsDirections) {
  const auto dev = MakeDevice("d", {1.0, 2.0}, {10.0, 20.0});
  const auto total = dev.TotalTraffic();
  EXPECT_DOUBLE_EQ(total[0], 11.0);
  EXPECT_DOUBLE_EQ(total[1], 22.0);
}

bool SameBits(const ts::TimeSeries& a, const ts::TimeSeries& b) {
  return a.start_minute() == b.start_minute() &&
         a.step_minutes() == b.step_minutes() && a.size() == b.size() &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.size() * sizeof(double)) == 0;
}

DeviceTrace Directions(ts::TimeSeries in, ts::TimeSeries out) {
  DeviceTrace dev;
  dev.incoming = std::move(in);
  dev.outgoing = std::move(out);
  return dev;
}

// The devices whose total is read in place: staggered direction spans, a
// direction that is empty, and directions on different steps or phases
// (TotalTraffic() falls back to incoming there).
std::vector<DeviceTrace> InPlaceTotalCases() {
  return {
      Directions(ts::TimeSeries(2, 1, {1.5, kNaN, 3.0}),
                 ts::TimeSeries(0, 1, {0.25, kNaN, kNaN, 4.0, 8.0, 0.1})),
      Directions(ts::TimeSeries(4, 1, {kNaN, kNaN}),
                 ts::TimeSeries(1, 1, {7.0})),
      Directions(ts::TimeSeries(3, 1, {2.0, 5.0}), ts::TimeSeries()),
      Directions(ts::TimeSeries(0, 2, {1.0, 2.0}),
                 ts::TimeSeries(0, 1, {3.0, 4.0, 5.0})),
      Directions(ts::TimeSeries(0, 2, {1.0, 2.0}),
                 ts::TimeSeries(1, 2, {3.0, 4.0})),
  };
}

TEST(DeviceTraceTest, TotalTrafficViewReadsTheTotalInPlace) {
  for (const DeviceTrace& dev : InPlaceTotalCases()) {
    const ts::TimeSeries want = dev.TotalTraffic();
    const TotalTrafficView view(dev);
    ASSERT_EQ(view.start_minute(), want.start_minute());
    ASSERT_EQ(view.step_minutes(), want.step_minutes());
    ASSERT_EQ(view.EndMinute(), want.EndMinute());
    ASSERT_EQ(view.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      const double got = view[i];
      EXPECT_EQ(std::memcmp(&got, &want.values()[i], sizeof(double)), 0)
          << "bin " << i;
    }
  }
}

// AddInto of the view equals AddInto of TotalTraffic() bit for bit into an
// empty sum, a sum the total lies inside (the in-place path), one it
// overhangs and one on another step.
TEST(DeviceTraceTest, AddIntoOfTheViewMatchesAddIntoOfTheTotal) {
  const std::vector<ts::TimeSeries> sums = {
      ts::TimeSeries(), ts::TimeSeries(-2, 1, std::vector<double>(12, 0.5)),
      ts::TimeSeries(3, 1, {1.0, kNaN}), ts::TimeSeries(0, 3, {1.0, 2.0})};
  for (const DeviceTrace& dev : InPlaceTotalCases()) {
    for (const ts::TimeSeries& start : sums) {
      ts::TimeSeries want = start;
      ts::AddInto(&want, dev.TotalTraffic());
      ts::TimeSeries got = start;
      ts::AddInto(&got, TotalTrafficView(dev));
      EXPECT_TRUE(SameBits(got, want));
    }
  }
}

TEST(GatewayTraceTest, AggregateSumsDevices) {
  GatewayTrace gw;
  gw.devices.push_back(MakeDevice("a", {1.0, 2.0}, {0.0, 0.0}));
  gw.devices.push_back(MakeDevice("b", {10.0, 20.0}, {0.0, 0.0}));
  const auto agg = gw.AggregateTraffic();
  EXPECT_DOUBLE_EQ(agg[0], 11.0);
  EXPECT_DOUBLE_EQ(agg[1], 22.0);
}

TEST(GatewayTraceTest, AggregateTreatsDisconnectedAsAbsent) {
  GatewayTrace gw;
  gw.devices.push_back(MakeDevice("a", {1.0, kNaN}, {0.0, kNaN}));
  gw.devices.push_back(MakeDevice("b", {kNaN, 5.0}, {kNaN, 1.0}));
  const auto agg = gw.AggregateTraffic();
  EXPECT_DOUBLE_EQ(agg[0], 1.0);
  EXPECT_DOUBLE_EQ(agg[1], 6.0);
}

TEST(GatewayTraceTest, AggregateMissingOnlyWhenAllDevicesMissing) {
  GatewayTrace gw;
  gw.devices.push_back(MakeDevice("a", {1.0, kNaN}, {1.0, kNaN}));
  gw.devices.push_back(MakeDevice("b", {2.0, kNaN}, {2.0, kNaN}));
  const auto agg = gw.AggregateTraffic();
  EXPECT_DOUBLE_EQ(agg[0], 6.0);
  EXPECT_TRUE(ts::TimeSeries::IsMissing(agg[1]));
}

TEST(GatewayTraceTest, DirectionalAggregates) {
  GatewayTrace gw;
  gw.devices.push_back(MakeDevice("a", {3.0}, {7.0}));
  gw.devices.push_back(MakeDevice("b", {1.0}, {2.0}));
  EXPECT_DOUBLE_EQ(gw.AggregateIncoming()[0], 4.0);
  EXPECT_DOUBLE_EQ(gw.AggregateOutgoing()[0], 9.0);
}

TEST(GatewayTraceTest, ConnectedDeviceCount) {
  GatewayTrace gw;
  gw.devices.push_back(MakeDevice("a", {1.0, kNaN, 1.0}, {0.0, kNaN, 0.0}));
  gw.devices.push_back(MakeDevice("b", {1.0, 1.0, kNaN}, {0.0, 0.0, kNaN}));
  const auto count = gw.ConnectedDeviceCount();
  EXPECT_DOUBLE_EQ(count[0], 2.0);
  EXPECT_DOUBLE_EQ(count[1], 1.0);
  EXPECT_DOUBLE_EQ(count[2], 1.0);
}

TEST(GatewayTraceTest, ConnectedDeviceCountMissingWhenOffline) {
  GatewayTrace gw;
  gw.devices.push_back(MakeDevice("a", {kNaN, 1.0}, {kNaN, 0.0}));
  const auto count = gw.ConnectedDeviceCount();
  EXPECT_TRUE(ts::TimeSeries::IsMissing(count[0]));
  EXPECT_DOUBLE_EQ(count[1], 1.0);
}

TEST(GatewayTraceTest, EmptyGatewayYieldsEmptyAggregate) {
  GatewayTrace gw;
  EXPECT_TRUE(gw.AggregateTraffic().empty());
  EXPECT_TRUE(gw.ConnectedDeviceCount().empty());
  EXPECT_FALSE(gw.HasObservationEveryWeek(0, 1));
}

TEST(GatewayTraceTest, HasObservationEveryWeek) {
  GatewayTrace gw;
  std::vector<double> in(static_cast<size_t>(2 * ts::kMinutesPerWeek), kNaN);
  in[100] = 1.0;                                          // week 0
  in[static_cast<size_t>(ts::kMinutesPerWeek) + 7] = 2.0; // week 1
  gw.devices.push_back(MakeDevice("a", in, std::vector<double>(in.size(), kNaN)));
  EXPECT_TRUE(gw.HasObservationEveryWeek(0, 2));
}

TEST(GatewayTraceTest, MissingWeekFailsEligibility) {
  GatewayTrace gw;
  std::vector<double> in(static_cast<size_t>(2 * ts::kMinutesPerWeek), kNaN);
  in[100] = 1.0;  // only week 0 observed
  gw.devices.push_back(MakeDevice("a", in, std::vector<double>(in.size(), kNaN)));
  EXPECT_TRUE(gw.HasObservationEveryWeek(0, 1));
  EXPECT_FALSE(gw.HasObservationEveryWeek(0, 2));
}

TEST(GatewayTraceTest, HasObservationEveryDay) {
  GatewayTrace gw;
  const int days = 3;
  std::vector<double> in(static_cast<size_t>(days * ts::kMinutesPerDay), kNaN);
  for (int d = 0; d < days; ++d) {
    in[static_cast<size_t>(d * ts::kMinutesPerDay) + 30] = 1.0;
  }
  gw.devices.push_back(MakeDevice("a", in, std::vector<double>(in.size(), kNaN)));
  EXPECT_TRUE(gw.HasObservationEveryDay(0, days));
  EXPECT_FALSE(gw.HasObservationEveryDay(0, days + 1));  // beyond range
}

TEST(GatewayTraceTest, MissingDayFailsDailyEligibility) {
  GatewayTrace gw;
  std::vector<double> in(static_cast<size_t>(3 * ts::kMinutesPerDay), kNaN);
  in[10] = 1.0;
  in[static_cast<size_t>(2 * ts::kMinutesPerDay) + 10] = 1.0;  // day 1 missing
  gw.devices.push_back(MakeDevice("a", in, std::vector<double>(in.size(), kNaN)));
  EXPECT_FALSE(gw.HasObservationEveryDay(0, 3));
}

}  // namespace
}  // namespace homets::simgen
