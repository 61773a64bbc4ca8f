#include "ts/rolling.h"

#include <algorithm>
#include <cmath>

namespace homets::ts {

namespace {

// Coefficient of variation of the non-missing entries.
double CoefficientOfVariation(const std::vector<double>& xs) {
  double sum = 0.0;
  size_t n = 0;
  for (double x : xs) {
    if (TimeSeries::IsMissing(x)) continue;
    sum += x;
    ++n;
  }
  if (n < 2) return 0.0;
  const double mean = sum / static_cast<double>(n);
  if (mean == 0.0) return 0.0;
  double ss = 0.0;
  for (double x : xs) {
    if (TimeSeries::IsMissing(x)) continue;
    ss += (x - mean) * (x - mean);
  }
  const double sd = std::sqrt(ss / static_cast<double>(n - 1));
  return std::fabs(sd / mean);
}

}  // namespace

double RollingMoments::MeanInstability() const {
  return CoefficientOfVariation(mean);
}

double RollingMoments::VarianceInstability() const {
  return CoefficientOfVariation(variance);
}

Result<RollingMoments> ComputeRollingMoments(const TimeSeries& series,
                                             size_t window) {
  if (window < 2) {
    return Status::InvalidArgument("RollingMoments: window must be >= 2");
  }
  if (series.size() < window) {
    return Status::InvalidArgument("RollingMoments: series shorter than window");
  }
  RollingMoments out;
  out.window = window;
  const size_t n_windows = series.size() - window + 1;
  out.mean.reserve(n_windows);
  out.variance.reserve(n_windows);
  for (size_t start = 0; start < n_windows; ++start) {
    double sum = 0.0, ss = 0.0;
    size_t observed = 0;
    for (size_t i = start; i < start + window; ++i) {
      const double v = series[i];
      if (TimeSeries::IsMissing(v)) continue;
      sum += v;
      ss += v * v;
      ++observed;
    }
    if (observed < 2) {
      out.mean.push_back(TimeSeries::Missing());
      out.variance.push_back(TimeSeries::Missing());
      continue;
    }
    const double mean = sum / static_cast<double>(observed);
    const double var = std::max(
        0.0, (ss - sum * mean) / static_cast<double>(observed - 1));
    out.mean.push_back(mean);
    out.variance.push_back(var);
  }
  return out;
}

}  // namespace homets::ts
