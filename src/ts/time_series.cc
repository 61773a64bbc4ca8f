#include "ts/time_series.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"

namespace homets::ts {

size_t TimeSeries::CountObserved() const {
  size_t count = 0;
  for (double v : values_) {
    if (!IsMissing(v)) ++count;
  }
  return count;
}

std::vector<double> TimeSeries::ObservedValues() const {
  std::vector<double> out;
  out.reserve(values_.size());
  for (double v : values_) {
    if (!IsMissing(v)) out.push_back(v);
  }
  return out;
}

double TimeSeries::Sum() const {
  double total = 0.0;
  for (double v : values_) {
    if (!IsMissing(v)) total += v;
  }
  return total;
}

namespace {

/// Adds `s` into `out[0, s.size())` by Add's missing-value rule: a missing
/// value of `s` leaves its slot as it is, a missing slot takes the value.
void BlendInto(double* out, const TimeSeries& s) {
  for (size_t i = 0; i < s.size(); ++i) {
    const double v = s[i];
    if (TimeSeries::IsMissing(v)) continue;
    double& slot = out[i];
    slot = TimeSeries::IsMissing(slot) ? v : slot + v;
  }
}

}  // namespace

Status TimeSeries::CheckSameGrid(const TimeSeries& a, const TimeSeries& b) {
  if (a.step_minutes() != b.step_minutes()) {
    return Status::InvalidArgument(StrFormat(
        "Add: step mismatch (%lld vs %lld)",
        static_cast<long long>(a.step_minutes()),
        static_cast<long long>(b.step_minutes())));
  }
  if ((a.start_minute() - b.start_minute()) % a.step_minutes() != 0) {
    return Status::InvalidArgument("Add: bin phase mismatch");
  }
  return Status::OK();
}

Result<TimeSeries> TimeSeries::Add(const TimeSeries& a, const TimeSeries& b) {
  HOMETS_RETURN_IF_ERROR(CheckSameGrid(a, b));
  const int64_t step = a.step_minutes();
  const int64_t begin = std::min(a.start_minute(), b.start_minute());
  const int64_t end = std::max(a.EndMinute(), b.EndMinute());
  const size_t n = static_cast<size_t>((end - begin) / step);
  std::vector<double> out(n, TimeSeries::Missing());
  for (const TimeSeries* s : {&a, &b}) {
    BlendInto(out.data() + (s->start_minute() - begin) / step, *s);
  }
  return TimeSeries(begin, step, std::move(out));
}

TimeSeries TimeSeries::FillMissing(double fill) const {
  TimeSeries out = *this;
  for (double& v : out.values_) {
    if (IsMissing(v)) v = fill;
  }
  return out;
}

Result<TimeSeries> TimeSeries::Slice(int64_t begin_minute,
                                     int64_t end_minute) const {
  if (begin_minute > end_minute) {
    return Status::InvalidArgument("Slice: begin > end");
  }
  if ((begin_minute - start_minute_) % step_minutes_ != 0 ||
      (end_minute - start_minute_) % step_minutes_ != 0) {
    return Status::InvalidArgument("Slice: bounds not aligned to bin grid");
  }
  if (begin_minute < start_minute_ || end_minute > EndMinute()) {
    return Status::OutOfRange(StrFormat(
        "Slice: [%lld, %lld) outside series range [%lld, %lld)",
        static_cast<long long>(begin_minute),
        static_cast<long long>(end_minute),
        static_cast<long long>(start_minute_),
        static_cast<long long>(EndMinute())));
  }
  const size_t first = static_cast<size_t>((begin_minute - start_minute_) /
                                           step_minutes_);
  const size_t count = static_cast<size_t>((end_minute - begin_minute) /
                                           step_minutes_);
  return TimeSeries(
      begin_minute, step_minutes_,
      std::vector<double>(values_.begin() + first,
                          values_.begin() + first + count));
}

namespace {

// First window boundary >= `minute` on the grid
// {anchor + k * granularity : k integer}.
int64_t NextBoundary(int64_t minute, int64_t granularity, int64_t anchor) {
  int64_t rem = (minute - anchor) % granularity;
  if (rem < 0) rem += granularity;
  return rem == 0 ? minute : minute + (granularity - rem);
}

}  // namespace

Result<TimeSeries> Aggregate(const TimeSeries& series,
                             int64_t granularity_minutes,
                             int64_t anchor_offset_minutes, AggKind kind) {
  if (granularity_minutes <= 0) {
    return Status::InvalidArgument("Aggregate: granularity must be positive");
  }
  if (granularity_minutes % series.step_minutes() != 0) {
    return Status::InvalidArgument(StrFormat(
        "Aggregate: granularity %lld not a multiple of step %lld",
        static_cast<long long>(granularity_minutes),
        static_cast<long long>(series.step_minutes())));
  }
  const int64_t step = series.step_minutes();
  const int64_t begin = NextBoundary(series.start_minute(),
                                     granularity_minutes,
                                     anchor_offset_minutes);
  const size_t bins_per_window =
      static_cast<size_t>(granularity_minutes / step);
  std::vector<double> out;
  int64_t window_start = begin;
  while (window_start + granularity_minutes <= series.EndMinute()) {
    const size_t first =
        static_cast<size_t>((window_start - series.start_minute()) / step);
    double sum = 0.0;
    double maxv = -std::numeric_limits<double>::infinity();
    size_t observed = 0;
    for (size_t i = 0; i < bins_per_window; ++i) {
      const double v = series[first + i];
      if (TimeSeries::IsMissing(v)) continue;
      ++observed;
      sum += v;
      maxv = std::max(maxv, v);
    }
    if (observed == 0) {
      out.push_back(TimeSeries::Missing());
    } else {
      switch (kind) {
        case AggKind::kSum:
          out.push_back(sum);
          break;
        case AggKind::kMean:
          out.push_back(sum / static_cast<double>(observed));
          break;
        case AggKind::kMax:
          out.push_back(maxv);
          break;
      }
    }
    window_start += granularity_minutes;
  }
  return TimeSeries(begin, granularity_minutes, std::move(out));
}

TimeSeries ZNormalize(const TimeSeries& series) {
  double sum = 0.0;
  size_t n = 0;
  for (double v : series.values()) {
    if (TimeSeries::IsMissing(v)) continue;
    sum += v;
    ++n;
  }
  TimeSeries out = series;
  if (n == 0) return out;
  const double mean = sum / static_cast<double>(n);
  double ss = 0.0;
  for (double v : series.values()) {
    if (TimeSeries::IsMissing(v)) continue;
    ss += (v - mean) * (v - mean);
  }
  const double sd = n > 1 ? std::sqrt(ss / static_cast<double>(n - 1)) : 0.0;
  for (double& v : out.mutable_values()) {
    if (TimeSeries::IsMissing(v)) continue;
    v = sd > 0.0 ? (v - mean) / sd : 0.0;
  }
  return out;
}

std::vector<TimeSeries> SliceWindows(const TimeSeries& series,
                                     int64_t window_minutes,
                                     int64_t anchor_offset_minutes) {
  std::vector<TimeSeries> windows;
  if (window_minutes <= 0 || series.empty()) return windows;
  if (window_minutes % series.step_minutes() != 0) return windows;
  int64_t window_start = NextBoundary(series.start_minute(), window_minutes,
                                      anchor_offset_minutes);
  while (window_start + window_minutes <= series.EndMinute()) {
    auto slice = series.Slice(window_start, window_start + window_minutes);
    if (slice.ok()) windows.push_back(std::move(slice).value());
    window_start += window_minutes;
  }
  return windows;
}

std::vector<TimeSeries> AggregateWindows(const TimeSeries& series,
                                         int64_t granularity_minutes,
                                         int64_t window_minutes,
                                         int64_t anchor_offset_minutes) {
  const auto aggregated = Aggregate(series, granularity_minutes,
                                    anchor_offset_minutes, AggKind::kSum);
  if (!aggregated.ok()) return {};
  return SliceWindows(*aggregated, window_minutes, anchor_offset_minutes);
}

void AddInto(TimeSeries* total, const TimeSeries& part) {
  if (part.empty()) return;
  if (total->empty()) {
    *total = part;
    return;
  }
  const bool inside = part.start_minute() >= total->start_minute() &&
                      part.EndMinute() <= total->EndMinute();
  if (inside && TimeSeries::CheckSameGrid(*total, part).ok()) {
    BlendInto(total->mutable_values().data() +
                  (part.start_minute() - total->start_minute()) /
                      total->step_minutes(),
              part);
    return;
  }
  auto sum = TimeSeries::Add(*total, part);
  if (sum.ok()) *total = std::move(sum).value();
}

}  // namespace homets::ts
