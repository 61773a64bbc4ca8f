// Property-style tests: algebraic invariants that must hold for any input,
// exercised over seeded random sweeps (TEST_P).
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/similarity.h"
#include "correlation/coefficients.h"
#include "distance/distance.h"
#include "stattests/ks_test.h"
#include "ts/time_series.h"

namespace homets {
namespace {

std::vector<double> RandomTraffic(Rng* rng, size_t n) {
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = rng->Bernoulli(0.1) ? rng->LogNormal(std::log(5e5), 1.0)
                            : rng->LogNormal(std::log(300.0), 0.8);
  }
  return xs;
}

class SeededSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededSweep, CorrelationSimilarityIsSymmetric) {
  Rng rng(GetParam());
  const auto x = RandomTraffic(&rng, 120);
  const auto y = RandomTraffic(&rng, 120);
  const auto xy = core::CorrelationSimilarity(x, y);
  const auto yx = core::CorrelationSimilarity(y, x);
  EXPECT_NEAR(xy.value, yx.value, 1e-9);
  EXPECT_EQ(xy.significant, yx.significant);
}

TEST_P(SeededSweep, CorrelationSimilarityIsBounded) {
  Rng rng(GetParam() + 1000);
  const auto x = RandomTraffic(&rng, 80);
  const auto y = RandomTraffic(&rng, 80);
  const double v = core::CorrelationSimilarity(x, y).value;
  EXPECT_GE(v, -1.0);
  EXPECT_LE(v, 1.0);
}

TEST_P(SeededSweep, CorrelationSimilarityScaleInvariant) {
  Rng rng(GetParam() + 2000);
  const auto x = RandomTraffic(&rng, 100);
  const auto y = RandomTraffic(&rng, 100);
  std::vector<double> y_scaled(y.size());
  const double scale = rng.Uniform(0.001, 1000.0);
  const double shift = rng.Uniform(0.0, 1e6);
  for (size_t i = 0; i < y.size(); ++i) y_scaled[i] = scale * y[i] + shift;
  EXPECT_NEAR(core::CorrelationSimilarity(x, y).value,
              core::CorrelationSimilarity(x, y_scaled).value, 1e-6);
}

TEST_P(SeededSweep, SelfSimilarityIsPerfectForNonConstantSeries) {
  Rng rng(GetParam() + 3000);
  const auto x = RandomTraffic(&rng, 60);
  const auto self = core::CorrelationSimilarity(x, x);
  EXPECT_NEAR(self.value, 1.0, 1e-9);
}

TEST_P(SeededSweep, CoefficientsShareSign) {
  // For a clear monotone association, all three coefficients agree in sign.
  Rng rng(GetParam() + 4000);
  std::vector<double> x(100), y(100);
  const double slope = rng.Bernoulli(0.5) ? 1.0 : -1.0;
  for (size_t i = 0; i < 100; ++i) {
    x[i] = rng.Normal();
    y[i] = slope * x[i] + 0.2 * rng.Normal();
  }
  const double p = correlation::Pearson(x, y)->coefficient;
  const double s = correlation::Spearman(x, y)->coefficient;
  const double k = correlation::Kendall(x, y)->coefficient;
  EXPECT_GT(p * slope, 0.0);
  EXPECT_GT(s * slope, 0.0);
  EXPECT_GT(k * slope, 0.0);
}

TEST_P(SeededSweep, SpearmanEqualsPearsonOnRanksAlreadyRankedData) {
  // For data that is already a permutation (no ties), Spearman's ρ equals
  // Pearson's r applied to the values (which are their own ranks).
  Rng rng(GetParam() + 5000);
  std::vector<double> x(50), y(50);
  for (size_t i = 0; i < 50; ++i) x[i] = static_cast<double>(i + 1);
  y = x;
  rng.Shuffle(&y);
  EXPECT_NEAR(correlation::Spearman(x, y)->coefficient,
              correlation::Pearson(x, y)->coefficient, 1e-9);
}

TEST_P(SeededSweep, KsTestIsSymmetric) {
  Rng rng(GetParam() + 6000);
  const auto a = RandomTraffic(&rng, 90);
  const auto b = RandomTraffic(&rng, 110);
  const auto ab = stattests::KolmogorovSmirnov(a, b).value();
  const auto ba = stattests::KolmogorovSmirnov(b, a).value();
  EXPECT_NEAR(ab.statistic, ba.statistic, 1e-12);
  EXPECT_NEAR(ab.p_value, ba.p_value, 1e-12);
}

TEST_P(SeededSweep, KsStatisticWithinUnitInterval) {
  Rng rng(GetParam() + 7000);
  const auto a = RandomTraffic(&rng, 50);
  const auto b = RandomTraffic(&rng, 70);
  const auto test = stattests::KolmogorovSmirnov(a, b).value();
  EXPECT_GE(test.statistic, 0.0);
  EXPECT_LE(test.statistic, 1.0);
  EXPECT_GE(test.p_value, 0.0);
  EXPECT_LE(test.p_value, 1.0);
}

TEST_P(SeededSweep, DtwNeverExceedsEuclideanForEqualLengths) {
  Rng rng(GetParam() + 9000);
  const auto a = RandomTraffic(&rng, 64);
  const auto b = RandomTraffic(&rng, 64);
  EXPECT_LE(distance::DynamicTimeWarping(a, b).value(),
            distance::Euclidean(a, b).value() + 1e-9);
}

TEST_P(SeededSweep, WiderBandNeverIncreasesDtw) {
  Rng rng(GetParam() + 10000);
  const auto a = RandomTraffic(&rng, 48);
  const auto b = RandomTraffic(&rng, 48);
  const double narrow = distance::DynamicTimeWarping(a, b, 2).value();
  const double wide = distance::DynamicTimeWarping(a, b, 10).value();
  const double full = distance::DynamicTimeWarping(a, b, -1).value();
  EXPECT_GE(narrow, wide - 1e-9);
  EXPECT_GE(wide, full - 1e-9);
}

TEST_P(SeededSweep, AggregationPreservesTotalMass) {
  Rng rng(GetParam() + 11000);
  const auto values = RandomTraffic(&rng, 1440);
  ts::TimeSeries series(0, 1, values);
  for (const int64_t g : {10LL, 60LL, 180LL, 720LL}) {
    const auto agg = ts::Aggregate(series, g, 0, ts::AggKind::kSum).value();
    EXPECT_NEAR(agg.Sum(), series.Sum(), 1e-6 * series.Sum());
  }
}

TEST_P(SeededSweep, TwoStageAggregationEqualsDirect) {
  // Sum-aggregating at 10 min then 60 min equals aggregating at 60 directly.
  Rng rng(GetParam() + 12000);
  ts::TimeSeries series(0, 1, RandomTraffic(&rng, 720));
  const auto fine = ts::Aggregate(series, 10, 0, ts::AggKind::kSum).value();
  const auto two_stage = ts::Aggregate(fine, 60, 0, ts::AggKind::kSum).value();
  const auto direct = ts::Aggregate(series, 60, 0, ts::AggKind::kSum).value();
  ASSERT_EQ(two_stage.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    // Relative tolerance: summation order differs between the two routes.
    EXPECT_NEAR(two_stage[i], direct[i], 1e-12 * std::fabs(direct[i]) + 1e-9);
  }
}

TEST_P(SeededSweep, TimeSeriesAddIsCommutative) {
  Rng rng(GetParam() + 13000);
  auto values_a = RandomTraffic(&rng, 100);
  auto values_b = RandomTraffic(&rng, 80);
  // Punch some missing holes.
  for (size_t i = 0; i < values_a.size(); i += 7) {
    values_a[i] = ts::TimeSeries::Missing();
  }
  ts::TimeSeries a(0, 1, values_a);
  ts::TimeSeries b(20, 1, values_b);
  const auto ab = ts::TimeSeries::Add(a, b).value();
  const auto ba = ts::TimeSeries::Add(b, a).value();
  ASSERT_EQ(ab.size(), ba.size());
  for (size_t i = 0; i < ab.size(); ++i) {
    if (ts::TimeSeries::IsMissing(ab[i])) {
      EXPECT_TRUE(ts::TimeSeries::IsMissing(ba[i]));
    } else {
      EXPECT_DOUBLE_EQ(ab[i], ba[i]);
    }
  }
}

TEST_P(SeededSweep, ZNormalizePreservesCorrelationSimilarity) {
  Rng rng(GetParam() + 14000);
  ts::TimeSeries x(0, 1, RandomTraffic(&rng, 90));
  ts::TimeSeries y(0, 1, RandomTraffic(&rng, 90));
  const double raw =
      core::CorrelationSimilarity(x.values(), y.values()).value;
  const double normalized = core::CorrelationSimilarity(
                                ts::ZNormalize(x).values(),
                                ts::ZNormalize(y).values())
                                .value;
  EXPECT_NEAR(raw, normalized, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace homets
