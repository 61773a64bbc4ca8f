#ifndef HOMETS_TS_TIME_SERIES_H_
#define HOMETS_TS_TIME_SERIES_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace homets::ts {

/// Minutes per calendar unit. The collection epoch (minute 0) is defined to
/// be a Monday 00:00 — matching the paper's dataset, which starts Monday
/// 2014-03-17 — so day-of-week arithmetic needs no calendar library.
inline constexpr int64_t kMinutesPerHour = 60;
inline constexpr int64_t kMinutesPerDay = 24 * kMinutesPerHour;
inline constexpr int64_t kMinutesPerWeek = 7 * kMinutesPerDay;
inline constexpr int kDaysPerWeek = 7;

/// Day of week with Monday == 0, matching the epoch convention.
enum class DayOfWeek : int {
  kMonday = 0,
  kTuesday = 1,
  kWednesday = 2,
  kThursday = 3,
  kFriday = 4,
  kSaturday = 5,
  kSunday = 6,
};

/// \brief True for Saturday and Sunday.
inline bool IsWeekend(DayOfWeek day) {
  return day == DayOfWeek::kSaturday || day == DayOfWeek::kSunday;
}

/// \brief Day of week for an absolute minute since the (Monday) epoch.
inline DayOfWeek DayOfWeekAt(int64_t minute) {
  // Floor division so pre-epoch minutes map to the preceding day.
  int64_t day_index = minute / kMinutesPerDay;
  if (minute % kMinutesPerDay < 0) --day_index;
  int64_t day = day_index % kDaysPerWeek;
  if (day < 0) day += kDaysPerWeek;
  return static_cast<DayOfWeek>(day);
}

/// \brief Minute within the day [0, 1440) for an absolute minute.
inline int64_t MinuteOfDay(int64_t minute) {
  int64_t m = minute % kMinutesPerDay;
  return m < 0 ? m + kMinutesPerDay : m;
}

/// \brief Regularly sampled time series with missing-value support.
///
/// Index semantics: element `i` covers the time bin
/// `[start_minute + i * step_minutes, start_minute + (i+1) * step_minutes)`.
/// Missing observations are NaN; traffic aggregation treats them as absent
/// rather than zero, because the dataset's gateways report with gaps.
class TimeSeries {
 public:
  TimeSeries() = default;

  /// Constructs a series starting at `start_minute` (absolute minutes since
  /// the Monday epoch) with bin width `step_minutes` (>= 1).
  TimeSeries(int64_t start_minute, int64_t step_minutes,
             std::vector<double> values)
      : start_minute_(start_minute),
        step_minutes_(step_minutes),
        values_(std::move(values)) {}

  static double Missing() { return std::nan(""); }
  static bool IsMissing(double v) { return std::isnan(v); }

  int64_t start_minute() const { return start_minute_; }
  int64_t step_minutes() const { return step_minutes_; }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  double operator[](size_t i) const { return values_[i]; }
  double& operator[](size_t i) { return values_[i]; }

  /// Absolute minute at which bin `i` begins.
  int64_t MinuteAt(size_t i) const {
    return start_minute_ + static_cast<int64_t>(i) * step_minutes_;
  }

  /// One past the last covered minute.
  int64_t EndMinute() const {
    return start_minute_ + static_cast<int64_t>(values_.size()) * step_minutes_;
  }

  /// Number of non-missing observations.
  size_t CountObserved() const;

  /// Values with missing entries dropped (order preserved).
  std::vector<double> ObservedValues() const;

  /// Sum over non-missing values (0 for an all-missing series).
  double Sum() const;

  /// Element-wise sum of `a` and `b` over their overlapping range; both must
  /// share step and bin phase. A bin is missing only when it is missing in
  /// both inputs (a device that is absent contributes zero traffic).
  static Result<TimeSeries> Add(const TimeSeries& a, const TimeSeries& b);

  /// Add(a, b) into `*sum`, reusing its buffer; `sum` must not be `a` or
  /// `b`. Left unchanged on error.
  static Status Add(const TimeSeries& a, const TimeSeries& b, TimeSeries* sum);

  /// OK when `a` and `b` share step and bin phase; otherwise Add's error.
  static Status CheckSameGrid(const TimeSeries& a, const TimeSeries& b);

  /// Returns a copy with missing values replaced by `fill`.
  TimeSeries FillMissing(double fill) const;

  /// Returns the sub-series covering absolute minutes [begin, end); the
  /// bounds must be aligned to the bin grid.
  Result<TimeSeries> Slice(int64_t begin_minute, int64_t end_minute) const;

 private:
  int64_t start_minute_ = 0;
  int64_t step_minutes_ = 1;
  std::vector<double> values_;
};

/// \brief How to combine raw bins into an aggregated bin.
enum class AggKind {
  kSum,   ///< total traffic in the window (the paper's aggregation)
  kMean,  ///< average rate
  kMax,   ///< peak
};

/// \brief Re-bins `series` into non-overlapping windows of
/// `granularity_minutes`, anchored so that window boundaries fall on
/// `anchor_offset_minutes` past midnight (e.g. 120 for the paper's
/// 2am-anchored aggregations).
///
/// Output bins that have no observed input are missing. Partial windows at
/// the edges are dropped so every output bin summarizes a full window.
Result<TimeSeries> Aggregate(const TimeSeries& series,
                             int64_t granularity_minutes,
                             int64_t anchor_offset_minutes, AggKind kind);

/// \brief z-normalizes the observed values (mean 0, sd 1). A constant series
/// maps to all zeros. Missing values stay missing.
TimeSeries ZNormalize(const TimeSeries& series);

/// \brief The paper's window mapping `W` (Definitions 2/3/5): cuts `series`
/// into consecutive non-overlapping windows of `window_minutes`, aligned to
/// calendar boundaries shifted by `anchor_offset_minutes`.
///
/// Only complete windows are returned. For weekly windows pass
/// `kMinutesPerWeek` (alignment starts each window on Monday at the anchor
/// offset); for daily windows pass `kMinutesPerDay`.
std::vector<TimeSeries> SliceWindows(const TimeSeries& series,
                                     int64_t window_minutes,
                                     int64_t anchor_offset_minutes);

/// \brief Aggregate (kSum at `granularity_minutes`) then SliceWindows, both
/// anchored at `anchor_offset_minutes`: the windows every analysis of the
/// paper mines. Empty when the series cannot be aggregated.
std::vector<TimeSeries> AggregateWindows(const TimeSeries& series,
                                         int64_t granularity_minutes,
                                         int64_t window_minutes,
                                         int64_t anchor_offset_minutes);

/// \brief Makes `*series` equal to a default TimeSeries (empty, start 0,
/// step 1) but keeps its buffer's capacity: the start of a running sum that
/// AddInto then builds without allocating.
void ClearKeepingBuffer(TimeSeries* series);

/// \brief Adds `part` into the running sum `*total` by TimeSeries::Add's
/// rule. A part inside `*total`'s span is added in place (no allocation);
/// one that overhangs either end grows `*total` to the union by Add. An
/// empty part is skipped, an empty total becomes a copy of `part`, and a
/// part Add rejects (step or phase mismatch) is left out.
void AddInto(TimeSeries* total, const TimeSeries& part);

}  // namespace homets::ts

#endif  // HOMETS_TS_TIME_SERIES_H_
