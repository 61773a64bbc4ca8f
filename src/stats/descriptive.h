#ifndef HOMETS_STATS_DESCRIPTIVE_H_
#define HOMETS_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace homets::stats {

/// \brief Arithmetic mean; 0 for an empty input is a silent bug, so empty
/// input returns an error.
Result<double> Mean(const std::vector<double>& xs);

/// \brief Unbiased sample variance (n − 1 denominator); requires n >= 2.
Result<double> Variance(const std::vector<double>& xs);

/// \brief Sample standard deviation; requires n >= 2.
Result<double> StdDev(const std::vector<double>& xs);

/// \brief Linear-interpolation quantile (R type 7), q in [0, 1]; requires a
/// non-empty input. The input need not be sorted.
Result<double> Quantile(std::vector<double> xs, double q);

/// \brief Quantile(xs, q) of an already ascending-sorted, non-empty vector,
/// without the copy and sort; q must be in [0, 1].
double SortedQuantile(const std::vector<double>& sorted, double q);

/// \brief Median, equivalent to Quantile(xs, 0.5).
Result<double> Median(std::vector<double> xs);

/// \brief Minimum of a non-empty vector.
Result<double> Min(const std::vector<double>& xs);

/// \brief Maximum of a non-empty vector.
Result<double> Max(const std::vector<double>& xs);

/// \brief Sample skewness (adjusted Fisher–Pearson); requires n >= 3 and a
/// non-degenerate distribution.
Result<double> Skewness(const std::vector<double>& xs);

/// \brief Moment summary used by reports.
struct Summary {
  size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
};

/// \brief Computes the full summary in one pass over a sorted copy.
Result<Summary> Summarize(std::vector<double> xs);

}  // namespace homets::stats

#endif  // HOMETS_STATS_DESCRIPTIVE_H_
