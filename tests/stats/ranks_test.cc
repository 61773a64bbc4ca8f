#include "stats/ranks.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace homets::stats {
namespace {

TEST(AverageRanksTest, NoTies) {
  const auto ranks = AverageRanks({30.0, 10.0, 20.0});
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_DOUBLE_EQ(ranks[0], 3.0);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[2], 2.0);
}

TEST(AverageRanksTest, TiesGetAverageRank) {
  const auto ranks = AverageRanks({10.0, 20.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(AverageRanksTest, AllTied) {
  const auto ranks = AverageRanks({7.0, 7.0, 7.0});
  for (double r : ranks) EXPECT_DOUBLE_EQ(r, 2.0);
}

TEST(AverageRanksTest, RankSumInvariant) {
  // Σ ranks = n(n+1)/2 regardless of ties.
  const std::vector<double> xs{5, 5, 1, 3, 3, 3, 9, 2};
  const auto ranks = AverageRanks(xs);
  const double sum = std::accumulate(ranks.begin(), ranks.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 8.0 * 9.0 / 2.0);
}

TEST(AverageRanksTest, EmptyInput) {
  EXPECT_TRUE(AverageRanks({}).empty());
}

TEST(AverageRanksTest, SingleElement) {
  const auto ranks = AverageRanks({42.0});
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
}

}  // namespace
}  // namespace homets::stats
