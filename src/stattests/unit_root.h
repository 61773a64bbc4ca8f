#ifndef HOMETS_STATTESTS_UNIT_ROOT_H_
#define HOMETS_STATTESTS_UNIT_ROOT_H_

#include <vector>

#include "common/status.h"

namespace homets::stattests {

/// \brief Augmented Dickey–Fuller test (constant, no trend).
///
/// Null hypothesis: the series has a unit root (is non-stationary). The
/// paper (Section 4.2) runs ADF on gateway traffic and finds classical
/// stationarity rejected across the board, motivating the custom "strong
/// stationarity" notion.
struct AdfTest {
  double statistic = 0.0;       ///< t statistic of the lagged level
  size_t lags = 0;              ///< augmentation lags used
  size_t n_obs = 0;             ///< effective regression observations
  double crit_1pct = 0.0;       ///< MacKinnon finite-sample critical values
  double crit_5pct = 0.0;
  double crit_10pct = 0.0;

  /// True when the unit-root null is rejected (series looks stationary) at
  /// the 5% level.
  bool StationaryAt5pct() const { return statistic < crit_5pct; }
};

/// \brief Runs ADF. `lags < 0` selects the Schwert rule
/// ⌊12 (T/100)^{1/4}⌋. NaNs are mean-imputed. Needs enough observations for
/// the augmented regression.
Result<AdfTest> AugmentedDickeyFuller(const std::vector<double>& x,
                                      int lags = -1);

/// \brief KPSS test for level stationarity.
///
/// Null hypothesis: the series is (level-)stationary — the opposite null of
/// ADF. Long-run variance uses the Bartlett kernel (Newey–West).
struct KpssTest {
  double statistic = 0.0;
  size_t bandwidth = 0;     ///< Newey–West truncation lag
  size_t n_obs = 0;
  double crit_1pct = 0.739;  ///< KPSS (1992) level-case critical values
  double crit_2_5pct = 0.574;
  double crit_5pct = 0.463;
  double crit_10pct = 0.347;

  /// True when the stationarity null is rejected at the 5% level.
  bool RejectedAt5pct() const { return statistic > crit_5pct; }
};

/// \brief Runs KPSS (level case). `bandwidth < 0` selects
/// ⌊4 (T/100)^{1/4}⌋. NaNs are mean-imputed.
Result<KpssTest> Kpss(const std::vector<double>& x, int bandwidth = -1);

/// \brief Ljung–Box portmanteau test for autocorrelation up to lag `h`.
///
/// Null hypothesis: the series is white noise (no autocorrelation).
struct LjungBoxTest {
  double statistic = 0.0;
  double p_value = 1.0;
  size_t lags = 0;

  bool Rejected(double alpha = 0.05) const { return p_value < alpha; }
};

/// \brief Runs Ljung–Box with `h` lags (h >= 1, series length > h + 1).
Result<LjungBoxTest> LjungBox(const std::vector<double>& x, size_t h);

}  // namespace homets::stattests

#endif  // HOMETS_STATTESTS_UNIT_ROOT_H_
