#include "ts/rolling.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace homets::ts {
namespace {

TEST(RollingMomentsTest, KnownValues) {
  TimeSeries s(0, 1, {1.0, 2.0, 3.0, 4.0});
  const auto rolling = ComputeRollingMoments(s, 2).value();
  ASSERT_EQ(rolling.mean.size(), 3u);
  EXPECT_DOUBLE_EQ(rolling.mean[0], 1.5);
  EXPECT_DOUBLE_EQ(rolling.mean[2], 3.5);
  EXPECT_DOUBLE_EQ(rolling.variance[0], 0.5);
}

TEST(RollingMomentsTest, ConstantSeriesIsStable) {
  TimeSeries s(0, 1, std::vector<double>(200, 7.0));
  const auto rolling = ComputeRollingMoments(s, 20).value();
  EXPECT_DOUBLE_EQ(rolling.MeanInstability(), 0.0);
  for (double v : rolling.variance) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(RollingMomentsTest, StationaryProcessHasLowInstability) {
  Rng rng(1);
  std::vector<double> v(5000);
  for (auto& x : v) x = rng.Normal(100.0, 5.0);
  TimeSeries s(0, 1, std::move(v));
  const auto rolling = ComputeRollingMoments(s, 500).value();
  EXPECT_LT(rolling.MeanInstability(), 0.02);
  EXPECT_LT(rolling.VarianceInstability(), 0.2);
}

TEST(RollingMomentsTest, LevelShiftShowsAsMeanInstability) {
  // The paper's Section 4.2 diagnosis: home-traffic moments wander in a
  // sliding window. A mid-series regime change must register.
  Rng rng(2);
  std::vector<double> v(4000);
  for (size_t i = 0; i < v.size(); ++i) {
    const double level = i < 2000 ? 100.0 : 500.0;
    v[i] = rng.Normal(level, 5.0);
  }
  TimeSeries s(0, 1, std::move(v));
  const auto rolling = ComputeRollingMoments(s, 400).value();
  EXPECT_GT(rolling.MeanInstability(), 0.3);
}

TEST(RollingMomentsTest, MissingHandling) {
  std::vector<double> v(10, 1.0);
  v[3] = TimeSeries::Missing();
  TimeSeries s(0, 1, std::move(v));
  const auto rolling = ComputeRollingMoments(s, 3).value();
  // Window [2,3,4] still has 2 observations → defined.
  EXPECT_FALSE(TimeSeries::IsMissing(rolling.mean[2]));
}

TEST(RollingMomentsTest, SparseWindowIsMissing) {
  std::vector<double> v(10, TimeSeries::Missing());
  v[0] = 1.0;
  TimeSeries s(0, 1, std::move(v));
  const auto rolling = ComputeRollingMoments(s, 3).value();
  EXPECT_TRUE(TimeSeries::IsMissing(rolling.mean[0]));  // 1 observation only
}

TEST(RollingMomentsTest, InvalidArguments) {
  TimeSeries s(0, 1, {1.0, 2.0});
  EXPECT_FALSE(ComputeRollingMoments(s, 1).ok());
  EXPECT_FALSE(ComputeRollingMoments(s, 5).ok());
}

}  // namespace
}  // namespace homets::ts
