#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

namespace homets::stats {

double SortedQuantile(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  if (n == 1) return sorted[0];
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Result<double> Mean(const std::vector<double>& xs) {
  if (xs.empty()) return Status::InvalidArgument("Mean: empty input");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

Result<double> Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) {
    return Status::InvalidArgument("Variance: need at least 2 observations");
  }
  HOMETS_ASSIGN_OR_RETURN(const double mean, Mean(xs));
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return ss / static_cast<double>(xs.size() - 1);
}

Result<double> StdDev(const std::vector<double>& xs) {
  HOMETS_ASSIGN_OR_RETURN(const double var, Variance(xs));
  return std::sqrt(var);
}

Result<double> Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return Status::InvalidArgument("Quantile: empty input");
  if (q < 0.0 || q > 1.0) {
    return Status::InvalidArgument("Quantile: q must be in [0, 1]");
  }
  std::sort(xs.begin(), xs.end());
  return SortedQuantile(xs, q);
}

Result<double> Median(std::vector<double> xs) {
  return Quantile(std::move(xs), 0.5);
}

Result<double> Min(const std::vector<double>& xs) {
  if (xs.empty()) return Status::InvalidArgument("Min: empty input");
  return *std::min_element(xs.begin(), xs.end());
}

Result<double> Max(const std::vector<double>& xs) {
  if (xs.empty()) return Status::InvalidArgument("Max: empty input");
  return *std::max_element(xs.begin(), xs.end());
}

Result<double> Skewness(const std::vector<double>& xs) {
  const size_t n = xs.size();
  if (n < 3) {
    return Status::InvalidArgument("Skewness: need at least 3 observations");
  }
  HOMETS_ASSIGN_OR_RETURN(const double mean, Mean(xs));
  double m2 = 0.0;
  double m3 = 0.0;
  for (double x : xs) {
    const double d = x - mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  if (m2 <= 0.0) {
    return Status::ComputeError("Skewness: degenerate (zero variance)");
  }
  const double g1 = m3 / std::pow(m2, 1.5);
  const double nf = static_cast<double>(n);
  return g1 * std::sqrt(nf * (nf - 1.0)) / (nf - 2.0);
}

Result<Summary> Summarize(std::vector<double> xs) {
  if (xs.empty()) return Status::InvalidArgument("Summarize: empty input");
  Summary s;
  s.n = xs.size();
  HOMETS_ASSIGN_OR_RETURN(s.mean, Mean(xs));
  if (xs.size() >= 2) {
    HOMETS_ASSIGN_OR_RETURN(s.stddev, StdDev(xs));
  }
  std::sort(xs.begin(), xs.end());
  s.min = xs.front();
  s.max = xs.back();
  s.q1 = SortedQuantile(xs, 0.25);
  s.median = SortedQuantile(xs, 0.5);
  s.q3 = SortedQuantile(xs, 0.75);
  return s;
}

}  // namespace homets::stats
