#include "correlation/coefficients.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"

namespace homets::correlation {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
  return v;
}

TEST(CompletePairsTest, DropsNanPairs) {
  std::vector<double> xc, yc;
  CompletePairs({1.0, std::nan(""), 3.0}, {4.0, 5.0, std::nan("")}, &xc, &yc);
  ASSERT_EQ(xc.size(), 1u);
  EXPECT_DOUBLE_EQ(xc[0], 1.0);
  EXPECT_DOUBLE_EQ(yc[0], 4.0);
}

TEST(CompletePairsTest, UnequalLengthsUseOverlap) {
  std::vector<double> xc, yc;
  CompletePairs({1.0, 2.0, 3.0}, {4.0, 5.0}, &xc, &yc);
  EXPECT_EQ(xc.size(), 2u);
}

TEST(PearsonTest, PerfectLinear) {
  const auto x = Ramp(50);
  std::vector<double> y(50);
  for (size_t i = 0; i < 50; ++i) y[i] = 3.0 * x[i] + 2.0;
  const auto test = Pearson(x, y).value();
  EXPECT_NEAR(test.coefficient, 1.0, 1e-12);
  EXPECT_LT(test.p_value, 1e-10);
  EXPECT_TRUE(test.Significant());
}

TEST(PearsonTest, PerfectNegative) {
  const auto x = Ramp(30);
  std::vector<double> y(30);
  for (size_t i = 0; i < 30; ++i) y[i] = -x[i];
  EXPECT_NEAR(Pearson(x, y)->coefficient, -1.0, 1e-12);
}

TEST(PearsonTest, IndependentNoiseInsignificant) {
  Rng rng(5);
  std::vector<double> x(200), y(200);
  for (size_t i = 0; i < 200; ++i) {
    x[i] = rng.Normal();
    y[i] = rng.Normal();
  }
  const auto test = Pearson(x, y).value();
  EXPECT_LT(std::fabs(test.coefficient), 0.2);
  EXPECT_GT(test.p_value, 0.001);
}

TEST(PearsonTest, KnownSmallSample) {
  // Hand-checked: r of {1,2,3,4,5} vs {2,1,4,3,5} is 0.8.
  const auto test = Pearson({1, 2, 3, 4, 5}, {2, 1, 4, 3, 5}).value();
  EXPECT_NEAR(test.coefficient, 0.8, 1e-12);
}

TEST(PearsonTest, ConstantSeriesErrors) {
  EXPECT_FALSE(Pearson({1, 1, 1, 1}, {1, 2, 3, 4}).ok());
  EXPECT_FALSE(Pearson({1, 2, 3, 4}, {5, 5, 5, 5}).ok());
}

TEST(PearsonTest, TooFewPairsErrors) {
  EXPECT_FALSE(Pearson({1, 2}, {3, 4}).ok());
}

TEST(PearsonTest, ScaleInvariance) {
  Rng rng(6);
  std::vector<double> x(100), y(100), y_scaled(100);
  for (size_t i = 0; i < 100; ++i) {
    x[i] = rng.Normal();
    y[i] = x[i] + 0.5 * rng.Normal();
    y_scaled[i] = 1000.0 * y[i] + 77.0;
  }
  EXPECT_NEAR(Pearson(x, y)->coefficient, Pearson(x, y_scaled)->coefficient,
              1e-12);
}

TEST(SpearmanTest, MonotoneNonlinearIsPerfect) {
  // Spearman captures monotonicity that Pearson understates.
  const auto x = Ramp(40);
  std::vector<double> y(40);
  for (size_t i = 0; i < 40; ++i) y[i] = std::exp(0.3 * x[i]);
  const auto rho = Spearman(x, y).value();
  EXPECT_NEAR(rho.coefficient, 1.0, 1e-12);
  const auto r = Pearson(x, y).value();
  EXPECT_LT(r.coefficient, rho.coefficient);
}

TEST(SpearmanTest, HandlesTies) {
  const auto test = Spearman({1, 2, 2, 3}, {1, 3, 3, 7}).value();
  EXPECT_NEAR(test.coefficient, 1.0, 1e-12);
}

TEST(SpearmanTest, AntitoneIsMinusOne) {
  const auto x = Ramp(20);
  std::vector<double> y(20);
  for (size_t i = 0; i < 20; ++i) y[i] = 1.0 / (1.0 + x[i]);
  EXPECT_NEAR(Spearman(x, y)->coefficient, -1.0, 1e-12);
}

TEST(KendallTest, PerfectConcordance) {
  const auto test = Kendall(Ramp(30), Ramp(30)).value();
  EXPECT_NEAR(test.coefficient, 1.0, 1e-12);
  EXPECT_LT(test.p_value, 1e-6);
}

TEST(KendallTest, PerfectDiscordance) {
  const auto x = Ramp(30);
  std::vector<double> y(x.rbegin(), x.rend());
  EXPECT_NEAR(Kendall(x, y)->coefficient, -1.0, 1e-12);
}

TEST(KendallTest, KnownSmallSample) {
  // x = {1,2,3,4}, y = {1,3,2,4}: 5 concordant, 1 discordant → τ = 4/6.
  const auto test = Kendall({1, 2, 3, 4}, {1, 3, 2, 4}).value();
  EXPECT_NEAR(test.coefficient, 4.0 / 6.0, 1e-12);
}

TEST(KendallTest, TauBHandlesTies) {
  // With ties in both inputs tau-b stays within [−1, 1] and detects the
  // association.
  const auto test = Kendall({1, 1, 2, 2, 3, 3}, {1, 2, 2, 3, 3, 4}).value();
  EXPECT_GT(test.coefficient, 0.6);
  EXPECT_LE(test.coefficient, 1.0);
}

TEST(KendallTest, MatchesBruteForceOnRandomData) {
  Rng rng(8);
  std::vector<double> x(60), y(60);
  for (size_t i = 0; i < 60; ++i) {
    // Coarse grid so ties actually occur.
    x[i] = std::floor(rng.Uniform(0.0, 8.0));
    y[i] = std::floor(x[i] / 2.0 + rng.Uniform(0.0, 4.0));
  }
  // Brute force tau-b.
  double nc = 0.0, nd = 0.0, tx = 0.0, ty = 0.0;
  const size_t n = x.size();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double dx = x[i] - x[j];
      const double dy = y[i] - y[j];
      if (dx == 0.0 && dy == 0.0) continue;
      if (dx == 0.0) {
        tx += 1.0;
      } else if (dy == 0.0) {
        ty += 1.0;
      } else if (dx * dy > 0.0) {
        nc += 1.0;
      } else {
        nd += 1.0;
      }
    }
  }
  const double n0 = static_cast<double>(n) * (n - 1) / 2.0;
  double joint = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (x[i] == x[j] && y[i] == y[j]) joint += 1.0;
    }
  }
  const double denom_x = n0 - (tx + joint);
  const double denom_y = n0 - (ty + joint);
  const double expected = (nc - nd) / std::sqrt(denom_x * denom_y);
  EXPECT_NEAR(Kendall(x, y)->coefficient, expected, 1e-10);
}

TEST(KendallTest, ConstantSeriesErrors) {
  EXPECT_FALSE(Kendall({2, 2, 2, 2}, {1, 2, 3, 4}).ok());
}

TEST(AllCoefficients, AgreeOnSignForLinearData) {
  Rng rng(10);
  std::vector<double> x(150), y(150);
  for (size_t i = 0; i < 150; ++i) {
    x[i] = rng.Normal();
    y[i] = 0.8 * x[i] + 0.4 * rng.Normal();
  }
  EXPECT_GT(Pearson(x, y)->coefficient, 0.5);
  EXPECT_GT(Spearman(x, y)->coefficient, 0.5);
  EXPECT_GT(Kendall(x, y)->coefficient, 0.3);  // tau runs lower than r
}

class CorrelationSignificanceTest : public ::testing::TestWithParam<double> {};

TEST_P(CorrelationSignificanceTest, StrongerSignalSmallerPValue) {
  // p-values must decrease as the true association strengthens.
  const double beta = GetParam();
  Rng rng(12);
  std::vector<double> x(120), weak(120), strong(120);
  for (size_t i = 0; i < 120; ++i) {
    x[i] = rng.Normal();
    const double noise = rng.Normal();
    weak[i] = beta * 0.2 * x[i] + noise;
    strong[i] = beta * x[i] + noise;
  }
  EXPECT_LE(Pearson(x, strong)->p_value, Pearson(x, weak)->p_value);
}

INSTANTIATE_TEST_SUITE_P(BetaSweep, CorrelationSignificanceTest,
                         ::testing::Values(0.5, 1.0, 2.0));

}  // namespace
}  // namespace homets::correlation
