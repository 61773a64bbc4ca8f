#include "ts/time_series.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace homets::ts {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(CalendarTest, EpochIsMonday) {
  EXPECT_EQ(DayOfWeekAt(0), DayOfWeek::kMonday);
  EXPECT_EQ(DayOfWeekAt(kMinutesPerDay - 1), DayOfWeek::kMonday);
  EXPECT_EQ(DayOfWeekAt(kMinutesPerDay), DayOfWeek::kTuesday);
  EXPECT_EQ(DayOfWeekAt(5 * kMinutesPerDay), DayOfWeek::kSaturday);
  EXPECT_EQ(DayOfWeekAt(6 * kMinutesPerDay), DayOfWeek::kSunday);
  EXPECT_EQ(DayOfWeekAt(kMinutesPerWeek), DayOfWeek::kMonday);
}

TEST(CalendarTest, NegativeMinutesWrapCorrectly) {
  EXPECT_EQ(DayOfWeekAt(-1), DayOfWeek::kSunday);
  EXPECT_EQ(MinuteOfDay(-1), kMinutesPerDay - 1);
}

TEST(CalendarTest, MinuteOfDay) {
  EXPECT_EQ(MinuteOfDay(0), 0);
  EXPECT_EQ(MinuteOfDay(61), 61);
  EXPECT_EQ(MinuteOfDay(kMinutesPerDay + 30), 30);
}

TEST(CalendarTest, WeekendPredicate) {
  EXPECT_FALSE(IsWeekend(DayOfWeek::kMonday));
  EXPECT_FALSE(IsWeekend(DayOfWeek::kFriday));
  EXPECT_TRUE(IsWeekend(DayOfWeek::kSaturday));
  EXPECT_TRUE(IsWeekend(DayOfWeek::kSunday));
}

TEST(TimeSeriesTest, BasicAccessors) {
  TimeSeries s(100, 5, {1.0, 2.0, 3.0});
  EXPECT_EQ(s.start_minute(), 100);
  EXPECT_EQ(s.step_minutes(), 5);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.MinuteAt(0), 100);
  EXPECT_EQ(s.MinuteAt(2), 110);
  EXPECT_EQ(s.EndMinute(), 115);
  EXPECT_DOUBLE_EQ(s[1], 2.0);
}

TEST(TimeSeriesTest, MissingValueHandling) {
  TimeSeries s(0, 1, {1.0, kNaN, 3.0, kNaN});
  EXPECT_EQ(s.CountObserved(), 2u);
  EXPECT_DOUBLE_EQ(s.Sum(), 4.0);
  const auto observed = s.ObservedValues();
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_DOUBLE_EQ(observed[0], 1.0);
  EXPECT_DOUBLE_EQ(observed[1], 3.0);
  EXPECT_TRUE(TimeSeries::IsMissing(TimeSeries::Missing()));
  EXPECT_FALSE(TimeSeries::IsMissing(0.0));
}

TEST(TimeSeriesTest, AddAlignedSeries) {
  TimeSeries a(0, 1, {1.0, 2.0, 3.0});
  TimeSeries b(0, 1, {10.0, 20.0, 30.0});
  const auto sum = TimeSeries::Add(a, b);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ((*sum)[0], 11.0);
  EXPECT_DOUBLE_EQ((*sum)[2], 33.0);
}

TEST(TimeSeriesTest, AddWithOffsetExtendsRange) {
  TimeSeries a(0, 1, {1.0, 2.0});
  TimeSeries b(3, 1, {5.0});
  const auto sum = TimeSeries::Add(a, b);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->start_minute(), 0);
  EXPECT_EQ(sum->size(), 4u);
  EXPECT_DOUBLE_EQ((*sum)[0], 1.0);
  EXPECT_TRUE(TimeSeries::IsMissing((*sum)[2]));  // neither covers minute 2
  EXPECT_DOUBLE_EQ((*sum)[3], 5.0);
}

TEST(TimeSeriesTest, AddMissingIsAbsentNotZeroPoison) {
  // A minute observed on one side only keeps the observed value.
  TimeSeries a(0, 1, {1.0, kNaN});
  TimeSeries b(0, 1, {kNaN, 7.0});
  const auto sum = TimeSeries::Add(a, b);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ((*sum)[0], 1.0);
  EXPECT_DOUBLE_EQ((*sum)[1], 7.0);
}

TEST(TimeSeriesTest, AddRejectsStepMismatch) {
  TimeSeries a(0, 1, {1.0});
  TimeSeries b(0, 2, {1.0});
  EXPECT_FALSE(TimeSeries::Add(a, b).ok());
}

TEST(TimeSeriesTest, AddRejectsPhaseMismatch) {
  TimeSeries a(0, 2, {1.0});
  TimeSeries b(1, 2, {1.0});
  EXPECT_FALSE(TimeSeries::Add(a, b).ok());
}

/// Same grid and every bit equal; missing matches missing.
void ExpectSameSeries(const TimeSeries& got, const TimeSeries& want) {
  ASSERT_EQ(got.start_minute(), want.start_minute());
  ASSERT_EQ(got.step_minutes(), want.step_minutes());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (TimeSeries::IsMissing(want[i])) {
      EXPECT_TRUE(TimeSeries::IsMissing(got[i])) << "bin " << i;
    } else {
      EXPECT_EQ(std::memcmp(&got.values()[i], &want.values()[i],
                            sizeof(double)),
                0)
          << "bin " << i << ": " << got[i] << " vs " << want[i];
    }
  }
}

/// AddInto(&total, part) must leave exactly TimeSeries::Add(total, part).
void ExpectAddIntoMatchesAdd(TimeSeries total, const TimeSeries& part) {
  const auto want = TimeSeries::Add(total, part);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  AddInto(&total, part);
  ExpectSameSeries(total, *want);
}

const TimeSeries kTotal(10, 2, {1.0, kNaN, 3.5, -0.0, kNaN, 1e300, 0.25});

TEST(AddIntoTest, PartInsideTotalAddsInPlace) {
  TimeSeries total = kTotal;
  const double* storage = total.values().data();
  const TimeSeries part(12, 2, {kNaN, 4.0, kNaN, -2.5, 1e300});
  ExpectAddIntoMatchesAdd(kTotal, part);
  ExpectAddIntoMatchesAdd(kTotal, kTotal);  // the whole span
  ExpectAddIntoMatchesAdd(kTotal, TimeSeries(22, 2, {kNaN}));  // last bin
  AddInto(&total, part);
  EXPECT_EQ(total.values().data(), storage);  // no reallocation
  EXPECT_EQ(total.size(), kTotal.size());
  EXPECT_DOUBLE_EQ(total[2], 7.5);
}

TEST(AddIntoTest, PartOverhangingEitherEndGrowsToTheUnion) {
  ExpectAddIntoMatchesAdd(kTotal, TimeSeries(6, 2, {2.0, kNaN, 5.0}));
  ExpectAddIntoMatchesAdd(kTotal, TimeSeries(20, 2, {1.0, kNaN, 7.0, 8.0}));
  ExpectAddIntoMatchesAdd(kTotal, TimeSeries(4, 2, std::vector<double>(14,
                                                                       1.5)));
}

TEST(AddIntoTest, DisjointPartLeavesAMissingGap) {
  ExpectAddIntoMatchesAdd(kTotal, TimeSeries(40, 2, {9.0, kNaN}));
  ExpectAddIntoMatchesAdd(kTotal, TimeSeries(-10, 2, {kNaN, 9.0}));
  TimeSeries total = kTotal;
  AddInto(&total, TimeSeries(40, 2, {9.0}));
  EXPECT_TRUE(TimeSeries::IsMissing(total[kTotal.size()]));
}

TEST(AddIntoTest, StepOrPhaseMismatchIsLeftOut) {
  for (const TimeSeries& part :
       {TimeSeries(12, 1, {5.0, 6.0}), TimeSeries(11, 2, {5.0, 6.0}),
        TimeSeries(0, 4, {5.0})}) {
    EXPECT_FALSE(TimeSeries::Add(kTotal, part).ok());
    TimeSeries total = kTotal;
    AddInto(&total, part);
    ExpectSameSeries(total, kTotal);
  }
}

TEST(AddIntoTest, EmptyPartOrTotal) {
  // An empty part is skipped: Add with an empty series at total's start.
  ExpectAddIntoMatchesAdd(kTotal, TimeSeries(10, 2, {}));
  TimeSeries total = kTotal;
  AddInto(&total, TimeSeries());
  ExpectSameSeries(total, kTotal);
  // An empty total becomes the part: Add with an empty series at its start.
  ExpectAddIntoMatchesAdd(TimeSeries(10, 2, {}), kTotal);
  TimeSeries empty;
  AddInto(&empty, kTotal);
  ExpectSameSeries(empty, kTotal);
}

// A gateway-style running sum: every part inside the first one's span, as
// device totals are on one gateway-wide grid, equals the chained Add.
TEST(AddIntoTest, RunningSumEqualsChainedAdd) {
  TimeSeries running;
  TimeSeries chained;
  for (int d = 0; d < 6; ++d) {
    std::vector<double> v(d == 0 ? 60 : 50);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = (i + d) % 7 == 0 ? kNaN : 0.1 * static_cast<double>(i * (d + 1));
    }
    const TimeSeries part(100 + d, 1, std::move(v));
    chained = d == 0 ? part : TimeSeries::Add(chained, part).value();
    AddInto(&running, part);
  }
  ExpectSameSeries(running, chained);
}

TEST(TimeSeriesTest, FillMissing) {
  TimeSeries s(0, 1, {kNaN, 2.0});
  const TimeSeries filled = s.FillMissing(-1.0);
  EXPECT_DOUBLE_EQ(filled[0], -1.0);
  EXPECT_DOUBLE_EQ(filled[1], 2.0);
}

TEST(TimeSeriesTest, SliceWithinRange) {
  TimeSeries s(10, 5, {0.0, 1.0, 2.0, 3.0});
  const auto slice = s.Slice(15, 25);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->start_minute(), 15);
  EXPECT_EQ(slice->size(), 2u);
  EXPECT_DOUBLE_EQ((*slice)[0], 1.0);
  EXPECT_DOUBLE_EQ((*slice)[1], 2.0);
}

TEST(TimeSeriesTest, SliceRejectsMisalignedBounds) {
  TimeSeries s(10, 5, {0.0, 1.0});
  EXPECT_FALSE(s.Slice(11, 20).ok());
  EXPECT_FALSE(s.Slice(10, 21).ok());
}

TEST(TimeSeriesTest, SliceRejectsOutOfRange) {
  TimeSeries s(10, 5, {0.0, 1.0});
  EXPECT_EQ(s.Slice(5, 15).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.Slice(10, 25).status().code(), StatusCode::kOutOfRange);
}

TEST(TimeSeriesTest, SliceEmptyRangeAllowed) {
  TimeSeries s(10, 5, {0.0, 1.0});
  const auto slice = s.Slice(15, 15);
  ASSERT_TRUE(slice.ok());
  EXPECT_TRUE(slice->empty());
}

TEST(ZNormalizeTest, MeanZeroUnitVariance) {
  TimeSeries s(0, 1, {2.0, 4.0, 6.0, 8.0});
  const TimeSeries z = ZNormalize(s);
  double sum = 0.0;
  for (double v : z.values()) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-12);
  double ss = 0.0;
  for (double v : z.values()) ss += v * v;
  EXPECT_NEAR(ss / 3.0, 1.0, 1e-12);  // sample variance
}

TEST(ZNormalizeTest, ConstantSeriesBecomesZeros) {
  TimeSeries s(0, 1, {5.0, 5.0, 5.0});
  const TimeSeries z = ZNormalize(s);
  for (double v : z.values()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ZNormalizeTest, MissingStaysMissing) {
  TimeSeries s(0, 1, {1.0, kNaN, 3.0});
  const TimeSeries z = ZNormalize(s);
  EXPECT_TRUE(TimeSeries::IsMissing(z[1]));
  EXPECT_FALSE(TimeSeries::IsMissing(z[0]));
}

}  // namespace
}  // namespace homets::ts
