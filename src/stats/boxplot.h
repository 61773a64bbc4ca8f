#ifndef HOMETS_STATS_BOXPLOT_H_
#define HOMETS_STATS_BOXPLOT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace homets::stats {

/// \brief Tukey boxplot summary.
///
/// Whiskers follow the standard convention: the most extreme data points
/// within 1.5 · IQR of the quartiles. The paper derives its per-device
/// background-traffic threshold τ from `upper_whisker` (Section 6.1), because
/// for home traffic the bulk of the probability mass is low-valued background
/// and active-usage values appear as boxplot outliers (Figure 1c/1d).
struct Boxplot {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double iqr = 0.0;
  double lower_whisker = 0.0;  ///< smallest observation >= q1 - 1.5 * iqr
  double upper_whisker = 0.0;  ///< largest observation <= q3 + 1.5 * iqr
  std::vector<double> outliers;  ///< observations outside the whiskers

  /// Fraction of observations flagged as outliers.
  double OutlierFraction(size_t n) const {
    return n == 0 ? 0.0
                  : static_cast<double>(outliers.size()) /
                        static_cast<double>(n);
  }
};

/// \brief Computes the boxplot of a non-empty sample. `whisker_factor` is the
/// Tukey multiplier (1.5 by convention).
Result<Boxplot> ComputeBoxplot(std::vector<double> xs,
                               double whisker_factor = 1.5);

/// \brief What UpperWhisker reports about a series.
struct UpperWhiskerResult {
  double value = 0.0;       ///< the upper whisker of the observed values
  size_t observations = 0;  ///< how many values are observed (not NaN)
};

/// \brief ComputeBoxplot(observed, whisker_factor).upper_whisker, where
/// `observed` is `values` without its NaNs (Missing), by an exact select over
/// order keys (OrderKey, stats/ranks.h) instead of a sort: O(n). Every zero
/// counts as +0.0, so a sample that mixes -0.0 and 0.0 gets the whisker of
/// the sample with its zeros made +0.0 (a sort may put either zero last).
/// `*keys` is scratch: a caller that passes one buffer for every series
/// allocates nothing once it has grown. InvalidArgument for a negative
/// `whisker_factor` or no observed value.
Result<UpperWhiskerResult> UpperWhisker(std::span<const double> values,
                                        std::vector<uint64_t>* keys,
                                        double whisker_factor = 1.5);

}  // namespace homets::stats

#endif  // HOMETS_STATS_BOXPLOT_H_
