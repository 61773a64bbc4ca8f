#ifndef HOMETS_TS_ROLLING_H_
#define HOMETS_TS_ROLLING_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "ts/time_series.h"

namespace homets::ts {

/// \brief Sliding-window moments of a series.
///
/// Backs the paper's Section 4.2 observation that "the covariance function
/// of the time series is not constant in sliding window": computing the
/// rolling mean/variance makes the instability measurable. Windows are
/// trailing (`window` consecutive bins ending at index i); outputs start at
/// index window − 1. Missing values inside a window are skipped; a window
/// with fewer than 2 observed values yields a missing output.
struct RollingMoments {
  std::vector<double> mean;      ///< one entry per complete window
  std::vector<double> variance;  ///< sample variance (n − 1)
  size_t window = 0;

  /// Coefficient of variation of the rolling means — a scale-free measure
  /// of how unstable the local level is (0 for a wide-sense stationary
  /// level). Missing entries are skipped.
  double MeanInstability() const;

  /// Same for the rolling variance: how unstable the local second moment
  /// is.
  double VarianceInstability() const;
};

/// \brief Computes rolling mean and variance with the given window size
/// (>= 2, <= series length).
Result<RollingMoments> ComputeRollingMoments(const TimeSeries& series,
                                             size_t window);

}  // namespace homets::ts

#endif  // HOMETS_TS_ROLLING_H_
