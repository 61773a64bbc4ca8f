#include "stats/boxplot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"

namespace homets::stats {
namespace {

TEST(BoxplotTest, NoOutliersInTightSample) {
  const auto box = ComputeBoxplot({1, 2, 3, 4, 5, 6, 7, 8}).value();
  EXPECT_DOUBLE_EQ(box.median, 4.5);
  EXPECT_TRUE(box.outliers.empty());
  EXPECT_DOUBLE_EQ(box.lower_whisker, 1.0);
  EXPECT_DOUBLE_EQ(box.upper_whisker, 8.0);
}

TEST(BoxplotTest, DetectsHighOutlier) {
  // The classic home-traffic shape: many low values, one active burst.
  std::vector<double> xs(100, 10.0);
  for (size_t i = 0; i < 50; ++i) xs[i] = 12.0;
  xs.push_back(1e7);
  const auto box = ComputeBoxplot(xs).value();
  ASSERT_EQ(box.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(box.outliers[0], 1e7);
  EXPECT_LE(box.upper_whisker, 12.0 + 1.5 * box.iqr);
}

TEST(BoxplotTest, DetectsLowOutlier) {
  std::vector<double> xs{-100.0};
  for (int i = 0; i < 50; ++i) xs.push_back(50.0 + i % 5);
  const auto box = ComputeBoxplot(xs).value();
  ASSERT_EQ(box.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(box.outliers[0], -100.0);
  EXPECT_GE(box.lower_whisker, box.q1 - 1.5 * box.iqr);
}

TEST(BoxplotTest, WhiskersAreDataPoints) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.Normal(0.0, 1.0));
  const auto box = ComputeBoxplot(xs).value();
  // Whiskers must coincide with actual observations.
  EXPECT_NE(std::find(xs.begin(), xs.end(), box.lower_whisker), xs.end());
  EXPECT_NE(std::find(xs.begin(), xs.end(), box.upper_whisker), xs.end());
}

TEST(BoxplotTest, IqrConsistency) {
  const auto box = ComputeBoxplot({1, 2, 3, 4, 5, 100}).value();
  EXPECT_DOUBLE_EQ(box.iqr, box.q3 - box.q1);
  EXPECT_LE(box.q1, box.median);
  EXPECT_LE(box.median, box.q3);
}

TEST(BoxplotTest, ZeroWhiskerFactorMarksEverythingOutsideBox) {
  const auto box = ComputeBoxplot({1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.0).value();
  for (double o : box.outliers) {
    EXPECT_TRUE(o < box.q1 || o > box.q3);
  }
}

TEST(BoxplotTest, ConstantSample) {
  const auto box = ComputeBoxplot({5, 5, 5, 5}).value();
  EXPECT_DOUBLE_EQ(box.iqr, 0.0);
  EXPECT_DOUBLE_EQ(box.upper_whisker, 5.0);
  EXPECT_TRUE(box.outliers.empty());
}

TEST(BoxplotTest, ErrorsOnBadInput) {
  EXPECT_FALSE(ComputeBoxplot({}).ok());
  EXPECT_FALSE(ComputeBoxplot({1.0}, -1.0).ok());
}

TEST(BoxplotTest, OutlierFraction) {
  Boxplot box;
  box.outliers = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(box.OutlierFraction(100), 0.02);
  EXPECT_DOUBLE_EQ(box.OutlierFraction(0), 0.0);
}

TEST(BoxplotTest, ZipfLikeTrafficPutsActiveValuesInOutliers) {
  // Background-dominated sample: the upper whisker must sit far below the
  // active-traffic scale, which is exactly how the paper derives τ.
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(rng.LogNormal(std::log(300), 0.8));
  for (int i = 0; i < 20; ++i) xs.push_back(rng.LogNormal(std::log(5e6), 0.5));
  const auto box = ComputeBoxplot(xs).value();
  EXPECT_LT(box.upper_whisker, 1e5);
  EXPECT_GE(box.outliers.size(), 20u);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The full boxplot's whisker over the observed (non-NaN) values of `xs`, with
// every zero made +0.0: UpperWhisker's documented result.
double ReferenceWhisker(const std::vector<double>& xs, double whisker_factor) {
  std::vector<double> observed;
  for (const double x : xs) {
    if (!std::isnan(x)) observed.push_back(x == 0.0 ? 0.0 : x);
  }
  return ComputeBoxplot(observed, whisker_factor)->upper_whisker;
}

// UpperWhisker selects instead of sorting; it must return the very bits of
// the full boxplot's whisker. `keys` may hold an earlier sample's keys.
void ExpectWhiskerParity(const std::vector<double>& xs,
                         double whisker_factor, std::vector<uint64_t>* keys) {
  const UpperWhiskerResult selected =
      UpperWhisker(xs, keys, whisker_factor).value();
  const double expected = ReferenceWhisker(xs, whisker_factor);
  EXPECT_TRUE(SameBits(selected.value, expected))
      << selected.value << " vs " << expected;
  const auto is_nan = [](double x) { return std::isnan(x); };
  EXPECT_EQ(selected.observations,
            xs.size() - static_cast<size_t>(
                            std::count_if(xs.begin(), xs.end(), is_nan)));
}

void ExpectWhiskerParity(const std::vector<double>& xs,
                         double whisker_factor = 1.5) {
  std::vector<uint64_t> keys;
  ExpectWhiskerParity(xs, whisker_factor, &keys);
}

TEST(UpperWhiskerTest, MatchesBoxplotOnSmallSamples) {
  ExpectWhiskerParity({1, 2, 3, 4, 5, 6, 7, 8});        // exactly 8
  ExpectWhiskerParity({8, 1, 7, 2, 6, 3, 5, 4000});     // 8, one outlier
  ExpectWhiskerParity({3.5});
  ExpectWhiskerParity({2.0, 1.0});
  ExpectWhiskerParity({5.0, 1.0, 3.0});
  Rng rng(11);
  for (size_t n = 1; n <= 40; ++n) {
    std::vector<double> xs(n);
    for (auto& x : xs) x = std::floor(rng.LogNormal(std::log(50.0), 1.5));
    SCOPED_TRACE(n);
    ExpectWhiskerParity(xs);
  }
}

TEST(UpperWhiskerTest, MatchesBoxplotOnAllTies) {
  ExpectWhiskerParity(std::vector<double>(8, 0.0));
  ExpectWhiskerParity(std::vector<double>(1000, 37.0));
  std::vector<double> two_values(999, 4.0);
  for (size_t i = 0; i < two_values.size(); i += 3) two_values[i] = 9.0;
  ExpectWhiskerParity(two_values);
}

TEST(UpperWhiskerTest, MatchesBoxplotOnNegativeValues) {
  Rng rng(12);
  std::vector<double> xs;
  for (int i = 0; i < 777; ++i) xs.push_back(rng.Normal(-250.0, 40.0));
  xs.push_back(-1e6);
  xs.push_back(3e4);
  ExpectWhiskerParity(xs);
  ExpectWhiskerParity({-8, -7, -6, -5, -4, -3, -2, -1});
}

TEST(UpperWhiskerTest, MatchesBoxplotOnHeavyZipfTail) {
  // Background bulk plus a Zipf tail of active bursts, the τ workload shape.
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(std::floor(rng.LogNormal(std::log(300.0), 0.8)));
  }
  for (int rank = 1; rank <= 2000; ++rank) {
    xs.push_back(std::floor(5e7 / std::pow(static_cast<double>(rank), 1.1)));
  }
  ExpectWhiskerParity(xs);
  ExpectWhiskerParity(xs, 3.0);
}

TEST(UpperWhiskerTest, MatchesBoxplotWithZeroWhiskerFactor) {
  ExpectWhiskerParity({1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.0);
  Rng rng(14);
  std::vector<double> xs;
  for (int i = 0; i < 5001; ++i) xs.push_back(rng.LogNormal(0.0, 2.0));
  ExpectWhiskerParity(xs, 0.0);
}

// One value of a kind a direction may hold or a whisker must survive.
double DrawValue(size_t kind, Rng* rng) {
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  switch (kind) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:  // fractional byte counts
      return rng->LogNormal(std::log(300.0), 1.5);
    case 3:
      return -rng->LogNormal(std::log(300.0), 1.5);
    case 4:  // subnormals of either sign
      return (rng->Bernoulli(0.5) ? kTiny : -kTiny) *
             static_cast<double>(1 + rng->UniformInt(1000));
    case 5:  // a handful of tied values
      return static_cast<double>(rng->UniformInt(4));
    case 6:
      return rng->Bernoulli(0.5) ? kInf : -kInf;
    default:  // Missing
      return kNaN;
  }
}

// Seeded random samples over every mix of value kinds, at n = 1…64 and at
// the length of a six-week direction, at whisker factors 0 and 1.5. One key
// buffer serves every sample, longer and shorter ones in turn.
TEST(UpperWhiskerTest, PropertyMatchesBoxplotOnEdgeSamples) {
  Rng rng(2016);
  std::vector<uint64_t> keys;
  size_t samples = 0;
  const auto check = [&](size_t n) {
    // Each sample draws from its own weights: some kinds absent, some rare.
    std::vector<double> weights(8);
    for (auto& w : weights) {
      w = rng.Bernoulli(0.4) ? 0.0 : rng.Uniform(0.02, 1.0);
    }
    weights[rng.UniformInt(7)] += 1.0;  // at least one observed kind
    std::vector<double> xs(n);
    for (auto& x : xs) x = DrawValue(rng.Categorical(weights), &rng);
    if (std::all_of(xs.begin(), xs.end(),
                    [](double x) { return std::isnan(x); })) {
      xs[0] = rng.LogNormal(0.0, 1.0);
    }
    for (const double factor : {0.0, 1.5}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " factor=" << factor
                                      << " sample " << samples);
      ExpectWhiskerParity(xs, factor, &keys);
    }
    ++samples;
  };
  for (size_t n = 1; n <= 64; ++n) {
    for (int rep = 0; rep < 40; ++rep) check(n);
  }
  for (int rep = 0; rep < 12; ++rep) check(60480);
  EXPECT_EQ(samples, 64u * 40u + 12u);
}

// DESIGN.md §5: a sort may put either zero last, so every zero reads as
// +0.0. This sample's quartiles and whisker all fall in the zero block.
TEST(UpperWhiskerTest, MixedSignedZerosReadAsPositiveZero) {
  const std::vector<double> xs = {-0.0, 0.0, -0.0, 0.0, -0.0,
                                  0.0,  -0.0, 0.0, 5e6};
  std::vector<uint64_t> keys;
  const double whisker = UpperWhisker(xs, &keys).value().value;
  EXPECT_EQ(whisker, 0.0);
  EXPECT_FALSE(std::signbit(whisker));
  const double only = UpperWhisker(std::vector<double>{-0.0}, &keys)->value;
  EXPECT_FALSE(std::signbit(only));
}

TEST(UpperWhiskerTest, NaNIsNotAnObservation) {
  std::vector<uint64_t> keys;
  const auto whisker =
      UpperWhisker(std::vector<double>{kNaN, 1, 2, kNaN, 3, 4, kNaN}, &keys)
          .value();
  EXPECT_EQ(whisker.observations, 4u);
  EXPECT_TRUE(
      SameBits(whisker.value, ComputeBoxplot({1, 2, 3, 4})->upper_whisker));
  EXPECT_FALSE(UpperWhisker(std::vector<double>{kNaN, kNaN}, &keys).ok());
}

TEST(UpperWhiskerTest, ErrorsOnBadInput) {
  std::vector<uint64_t> keys;
  std::vector<double> one = {1.0};
  EXPECT_FALSE(UpperWhisker({}, &keys).ok());
  EXPECT_FALSE(UpperWhisker(one, &keys, -1.0).ok());
}

}  // namespace
}  // namespace homets::stats
