#include "core/stationarity.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/status.h"

namespace homets::core {
namespace {

// Windows sharing one deterministic daily shape plus small noise: strongly
// stationary by construction.
std::vector<ts::TimeSeries> RegularWindows(size_t count, size_t length,
                                           double noise, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> shape(length);
  for (size_t i = 0; i < length; ++i) {
    shape[i] = 100.0 + 80.0 * std::sin(2.0 * M_PI * static_cast<double>(i) /
                                       static_cast<double>(length));
  }
  std::vector<ts::TimeSeries> windows;
  for (size_t w = 0; w < count; ++w) {
    std::vector<double> v(length);
    for (size_t i = 0; i < length; ++i) {
      v[i] = shape[i] + noise * rng.Normal();
    }
    windows.emplace_back(static_cast<int64_t>(w) * ts::kMinutesPerDay,
                         ts::kMinutesPerDay / static_cast<int64_t>(length),
                         std::move(v));
  }
  return windows;
}

TEST(StrongStationarityTest, RegularWindowsAreStationary) {
  const auto windows = RegularWindows(4, 24, 3.0, 1);
  const auto result = CheckStrongStationarity(windows).value();
  EXPECT_TRUE(result.strongly_stationary);
  EXPECT_TRUE(result.correlation_ok);
  EXPECT_TRUE(result.distribution_ok);
  EXPECT_GT(result.min_pair_similarity, 0.6);
  EXPECT_GT(result.min_ks_p_value, 0.05);
  EXPECT_EQ(result.window_pairs, 6u);  // C(4,2)
}

TEST(StrongStationarityTest, IndependentNoiseFailsCorrelation) {
  Rng rng(2);
  std::vector<ts::TimeSeries> windows;
  for (int w = 0; w < 3; ++w) {
    std::vector<double> v(24);
    for (auto& x : v) x = rng.Normal(100.0, 10.0);
    windows.emplace_back(w * ts::kMinutesPerDay, 60, std::move(v));
  }
  const auto result = CheckStrongStationarity(windows).value();
  EXPECT_FALSE(result.strongly_stationary);
  EXPECT_FALSE(result.correlation_ok);
  // Same marginal distribution though — KS should typically pass.
}

TEST(StrongStationarityTest, DistributionShiftFailsKs) {
  // Same shape but one window has its level and spread blown up 50×: window
  // correlation stays perfect (scale-invariant), the distribution differs.
  auto windows = RegularWindows(3, 48, 0.5, 3);
  for (double& v : windows[2].mutable_values()) v *= 50.0;
  const auto result = CheckStrongStationarity(windows).value();
  EXPECT_TRUE(result.correlation_ok);
  EXPECT_FALSE(result.distribution_ok);
  EXPECT_FALSE(result.strongly_stationary);
}

TEST(StrongStationarityTest, PhiThresholdRespected) {
  const auto windows = RegularWindows(3, 24, 30.0, 4);
  StationarityOptions strict;
  strict.phi = 0.99;  // stricter than any noisy pair can satisfy
  const auto result = CheckStrongStationarity(windows, strict).value();
  EXPECT_FALSE(result.correlation_ok);
}

TEST(StrongStationarityTest, NeedsTwoWindows) {
  const auto windows = RegularWindows(1, 24, 1.0, 5);
  EXPECT_FALSE(CheckStrongStationarity(windows).ok());
}

TEST(StrongStationarityTest, MinPairSimilarityIsTheWeakestLink) {
  auto windows = RegularWindows(3, 48, 1.0, 6);
  // Corrupt one window into anti-phase.
  auto& bad = windows[2].mutable_values();
  std::reverse(bad.begin(), bad.end());
  const auto result = CheckStrongStationarity(windows).value();
  EXPECT_LT(result.min_pair_similarity, 0.5);
}

// 12 windows are 66 pairs, run inline as two engine blocks (64 + 2 pairs).
TEST(StrongStationarityTest, FailedBlockIsSkippedAndCounted) {
  const auto windows = RegularWindows(12, 24, 3.0, 8);
  Failpoints::Global().Reset();
  ASSERT_TRUE(Failpoints::Global().Configure("engine.pair_block=fail*1").ok());
  const auto result = CheckStrongStationarity(windows);
  Failpoints::Global().Reset();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->pairs_skipped, 64u);
  EXPECT_EQ(result->window_pairs, 2u);
}

TEST(StrongStationarityTest, AllBlocksFailedIsAComputeError) {
  const auto windows = RegularWindows(12, 24, 3.0, 8);
  Failpoints::Global().Reset();
  ASSERT_TRUE(Failpoints::Global().Configure("engine.pair_block=fail").ok());
  const auto result = CheckStrongStationarity(windows);
  Failpoints::Global().Reset();
  EXPECT_EQ(result.status().code(), StatusCode::kComputeError);
}

TEST(WeekdayStationarityTest, GroupsByWeekday) {
  // 14 daily windows (2 weeks): same-weekday windows identical, different
  // weekdays uncorrelated. Every weekday should be stationary.
  Rng rng(7);
  std::vector<std::vector<double>> weekday_shape(7, std::vector<double>(24));
  for (auto& shape : weekday_shape) {
    for (auto& v : shape) v = rng.Uniform(50.0, 400.0);
  }
  std::vector<ts::TimeSeries> windows;
  for (int day = 0; day < 14; ++day) {
    std::vector<double> v = weekday_shape[static_cast<size_t>(day % 7)];
    for (auto& x : v) x += rng.Normal(0.0, 2.0);
    windows.emplace_back(day * ts::kMinutesPerDay, 60, std::move(v));
  }
  const auto results = CheckWeekdayStationarity(windows).value();
  ASSERT_EQ(results.size(), 7u);
  EXPECT_EQ(CountStationaryWeekdays(results), 7u);
}

TEST(WeekdayStationarityTest, SingleWeekHasNoEvidence) {
  // One window per weekday → no pairs → nothing stationary.
  std::vector<ts::TimeSeries> windows;
  Rng rng(8);
  for (int day = 0; day < 7; ++day) {
    std::vector<double> v(24);
    for (auto& x : v) x = rng.Uniform(0.0, 100.0);
    windows.emplace_back(day * ts::kMinutesPerDay, 60, std::move(v));
  }
  const auto results = CheckWeekdayStationarity(windows).value();
  EXPECT_EQ(CountStationaryWeekdays(results), 0u);
  for (const auto& r : results) EXPECT_EQ(r.window_pairs, 0u);
}

TEST(WeekdayStationarityTest, PartiallyStationaryGateway) {
  // Mondays repeat across 3 weeks; all other days are noise.
  Rng rng(9);
  std::vector<double> monday(24);
  for (auto& v : monday) v = rng.Uniform(100.0, 500.0);
  std::vector<ts::TimeSeries> windows;
  for (int day = 0; day < 21; ++day) {
    std::vector<double> v(24);
    if (day % 7 == 0) {
      v = monday;
      for (auto& x : v) x += rng.Normal(0.0, 1.0);
    } else {
      for (auto& x : v) x = rng.Uniform(0.0, 1000.0);
    }
    windows.emplace_back(day * ts::kMinutesPerDay, 60, std::move(v));
  }
  const auto results = CheckWeekdayStationarity(windows).value();
  EXPECT_TRUE(results[0].strongly_stationary);  // Monday
  EXPECT_GE(CountStationaryWeekdays(results), 1u);
  EXPECT_LT(CountStationaryWeekdays(results), 7u);
}

}  // namespace
}  // namespace homets::core
