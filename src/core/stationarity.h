#ifndef HOMETS_CORE_STATIONARITY_H_
#define HOMETS_CORE_STATIONARITY_H_

#include <vector>

#include "common/status.h"
#include "ts/time_series.h"

namespace homets::core {

/// \brief Options for Definition 2.
struct StationarityOptions {
  double phi = 0.6;     ///< minimum pairwise correlation similarity
  double alpha = 0.05;  ///< level for both the correlation and KS tests
};

/// \brief Evidence gathered while checking strong stationarity.
struct StationarityResult {
  bool strongly_stationary = false;
  double min_pair_similarity = 0.0;  ///< weakest window-pair cor(·,·)
  double min_ks_p_value = 1.0;       ///< strongest distribution difference
  size_t window_pairs = 0;           ///< window pairs compared, n(n−1)/2

  /// Which of the two conditions failed (both true when stationary).
  bool correlation_ok = false;
  bool distribution_ok = false;
};

/// \brief Definition 2: a series is strongly stationary for a window size if
/// every pair of non-overlapping windows has correlation similarity > φ and
/// the two-sample KS test is not rejected for any pair.
///
/// `windows` is the output of the mapping W (ts::SliceWindows); at least two
/// windows are required.
Result<StationarityResult> CheckStrongStationarity(
    const std::vector<ts::TimeSeries>& windows,
    const StationarityOptions& options = {});

/// \brief Daily-pattern variant (Section 7.1.2): windows are one per day and
/// only same-weekday pairs are compared (all Mondays together, etc.).
/// Returns per-weekday results indexed by ts::DayOfWeek; a weekday with
/// fewer than two windows is reported non-stationary with zero pairs.
Result<std::vector<StationarityResult>> CheckWeekdayStationarity(
    const std::vector<ts::TimeSeries>& daily_windows,
    const StationarityOptions& options = {});

/// \brief Number of weekdays whose windows are strongly stationary — the
/// stacked quantity in Figure 7.
size_t CountStationaryWeekdays(const std::vector<StationarityResult>& results);

}  // namespace homets::core

#endif  // HOMETS_CORE_STATIONARITY_H_
