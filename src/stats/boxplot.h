#ifndef HOMETS_STATS_BOXPLOT_H_
#define HOMETS_STATS_BOXPLOT_H_

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

/// \brief ComputeBoxplot(xs, whisker_factor).upper_whisker, bit for bit, by
/// selection instead of a full sort: O(n) expected, for callers (the paper's
/// per-device τ) that need nothing else from the boxplot. Selects in the
/// caller's buffer, so `xs` comes back reordered.
Result<double> UpperWhisker(std::span<double> xs, double whisker_factor = 1.5);

}  // namespace homets::stats

#endif  // HOMETS_STATS_BOXPLOT_H_
