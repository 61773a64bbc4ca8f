#include "core/aggregation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace homets::core {
namespace {

// A gateway whose minute-level traffic repeats a daily template with bursty
// noise: fine granularities decorrelate, coarse ones align — Figure 6/8's
// mechanism.
ts::TimeSeries TemplateGateway(int weeks, double session_prob, uint64_t seed) {
  Rng rng(seed);
  const int64_t horizon = weeks * ts::kMinutesPerWeek;
  std::vector<double> v(static_cast<size_t>(horizon), 0.0);
  for (int64_t m = 0; m < horizon; ++m) {
    const int hour = static_cast<int>(ts::MinuteOfDay(m) / 60);
    const bool active_hours = hour >= 18 && hour < 23;
    if (active_hours && rng.Bernoulli(session_prob)) {
      v[static_cast<size_t>(m)] = rng.LogNormal(std::log(5e5), 0.8);
    }
  }
  return ts::TimeSeries(0, 1, std::move(v));
}

// The average window correlation of one gateway: SweepAggregations over a
// one-gateway fleet at a single granularity. A gateway it cannot evaluate
// is skipped, so the point counts no gateway.
AggregationPoint OneGatewayPoint(const ts::TimeSeries& gateway,
                                 int64_t granularity_minutes,
                                 int64_t anchor_offset_minutes,
                                 PatternPeriod period) {
  AggregationSweepOptions options;
  options.anchor_offset_minutes = anchor_offset_minutes;
  options.period = period;
  const auto sweep =
      SweepAggregations({gateway}, {granularity_minutes}, options).value();
  EXPECT_EQ(sweep.size(), 1u);
  return sweep.front();
}

TEST(AverageWindowCorrelationTest, WeeklyRegularGatewayHighAtCoarseBins) {
  const auto gw = TemplateGateway(4, 0.30, 1);
  const auto coarse = OneGatewayPoint(gw, 480, 120, PatternPeriod::kWeekly);
  const auto fine = OneGatewayPoint(gw, 5, 0, PatternPeriod::kWeekly);
  ASSERT_EQ(coarse.gateways_all, 1u);
  ASSERT_EQ(fine.gateways_all, 1u);
  EXPECT_GT(coarse.mean_correlation_all, 0.6);
  EXPECT_GT(coarse.mean_correlation_all, fine.mean_correlation_all);
}

TEST(AverageWindowCorrelationTest, DailyComparesSameWeekdayOnly) {
  const auto gw = TemplateGateway(2, 0.30, 2);
  // At 180-minute bins the evening block repeats day over day.
  const auto point = OneGatewayPoint(gw, 180, 0, PatternPeriod::kDaily);
  ASSERT_EQ(point.gateways_all, 1u);
  EXPECT_GT(point.mean_correlation_all, 0.5);
}

TEST(AverageWindowCorrelationTest, ErrorsWhenTooFewWindows) {
  const auto gw = TemplateGateway(1, 0.3, 3);
  EXPECT_EQ(OneGatewayPoint(gw, 480, 0, PatternPeriod::kWeekly).gateways_all,
            0u);
}

TEST(AverageWindowCorrelationTest, GranularityMustDivideWindow) {
  const auto gw = TemplateGateway(2, 0.3, 4);
  // 7 hours does not divide a day/week evenly.
  EXPECT_EQ(OneGatewayPoint(gw, 7 * 60, 0, PatternPeriod::kDaily).gateways_all,
            0u);
}

TEST(SweepAggregationsTest, CurveRisesWithGranularityForRegularFleet) {
  // Sparse sessions: fine bins decorrelate week-over-week, coarse bins align.
  std::vector<ts::TimeSeries> fleet;
  for (int g = 0; g < 5; ++g) {
    fleet.push_back(TemplateGateway(4, 0.04, 10 + static_cast<uint64_t>(g)));
  }
  AggregationSweepOptions options;
  options.period = PatternPeriod::kWeekly;
  options.anchor_offset_minutes = 120;
  const auto sweep =
      SweepAggregations(fleet, {5, 240, 480}, options).value();
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_GT(sweep[2].mean_correlation_all, sweep[0].mean_correlation_all);
  EXPECT_EQ(sweep[0].gateways_all, 5u);
}

TEST(SweepAggregationsTest, StationarySubsetTracked) {
  std::vector<ts::TimeSeries> fleet;
  // Regular gateways plus a pure-noise one.
  for (int g = 0; g < 3; ++g) {
    fleet.push_back(TemplateGateway(4, 0.35, 20 + static_cast<uint64_t>(g)));
  }
  Rng rng(99);
  std::vector<double> noise(static_cast<size_t>(4 * ts::kMinutesPerWeek));
  for (auto& v : noise) v = rng.Bernoulli(0.01) ? rng.LogNormal(13.0, 1.0) : 0.0;
  fleet.emplace_back(0, 1, std::move(noise));

  AggregationSweepOptions options;
  options.period = PatternPeriod::kWeekly;
  options.anchor_offset_minutes = 120;
  const auto sweep = SweepAggregations(fleet, {480}, options).value();
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_LE(sweep[0].gateways_stationary, sweep[0].gateways_all);
  if (sweep[0].gateways_stationary > 0) {
    EXPECT_GE(sweep[0].mean_correlation_stationary,
              sweep[0].mean_correlation_all - 0.05);
  }
}

TEST(SweepAggregationsTest, EmptyFleetErrors) {
  AggregationSweepOptions options;
  EXPECT_FALSE(SweepAggregations({}, {60}, options).ok());
}

TEST(BestGranularityTest, PicksArgmax) {
  std::vector<AggregationPoint> sweep(3);
  sweep[0] = {60, 0.3, 10, 0.5, 2};
  sweep[1] = {180, 0.6, 10, 0.7, 3};
  sweep[2] = {480, 0.5, 10, 0.9, 1};
  EXPECT_EQ(BestGranularity(sweep, false).value(), 180);
  EXPECT_EQ(BestGranularity(sweep, true).value(), 480);
}

TEST(BestGranularityTest, SkipsEmptyPoints) {
  std::vector<AggregationPoint> sweep(2);
  sweep[0] = {60, 0.9, 0, 0.0, 0};  // no gateways evaluated
  sweep[1] = {180, 0.4, 5, 0.0, 0};
  EXPECT_EQ(BestGranularity(sweep, false).value(), 180);
  EXPECT_FALSE(BestGranularity(sweep, true).ok());
}

TEST(StationaryWeekdayCountTest, RegularGatewayHasStationaryDays) {
  // Very regular evening usage at high session probability.
  const auto gw = TemplateGateway(4, 0.5, 30);
  const auto count = StationaryWeekdayCount(gw, 180).value();
  EXPECT_GE(count, 1u);
}

TEST(StationaryWeekdayCountTest, PureNoiseGatewayHasFew) {
  Rng rng(31);
  std::vector<double> noise(static_cast<size_t>(4 * ts::kMinutesPerWeek));
  for (auto& v : noise) {
    v = rng.Bernoulli(0.005) ? rng.LogNormal(14.0, 1.5) : 0.0;
  }
  ts::TimeSeries gw(0, 1, std::move(noise));
  const auto count = StationaryWeekdayCount(gw, 180).value();
  EXPECT_LE(count, 2u);
}

}  // namespace
}  // namespace homets::core
