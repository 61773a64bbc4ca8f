#ifndef HOMETS_CORE_AGGREGATION_H_
#define HOMETS_CORE_AGGREGATION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/stationarity.h"
#include "ts/time_series.h"

namespace homets::core {

/// \brief Pattern period being optimized.
enum class PatternPeriod {
  kWeekly,  ///< week-over-week regularity (Section 7.1.1)
  kDaily,   ///< same-weekday regularity (Section 7.1.2)
};

/// \brief One point of an aggregation sweep (Figures 6 and 8).
struct AggregationPoint {
  int64_t granularity_minutes = 0;
  double mean_correlation_all = 0.0;        ///< mean over all gateways
  size_t gateways_all = 0;
  double mean_correlation_stationary = 0.0; ///< mean over stationary ones
  size_t gateways_stationary = 0;           ///< Figure 7's count
};

/// \brief Sweep options. Stationarity uses Definition 2 on the aggregated
/// windows; for kDaily a gateway counts as stationary when at least one
/// weekday is (the decomposition Figure 7 stacks).
struct AggregationSweepOptions {
  int64_t anchor_offset_minutes = 0;
  PatternPeriod period = PatternPeriod::kWeekly;
  StationarityOptions stationarity;
};

/// \brief Runs Definition 3's optimization over candidate granularities for
/// a set of per-gateway (background-removed) traffic series.
///
/// A gateway's value at a granularity is the mean correlation similarity of
/// its windows, re-binned and anchored at `anchor_offset_minutes` past
/// midnight: for kWeekly every pair of weekly windows is compared, for
/// kDaily only same-weekday pairs (Mondays with Mondays, ...). Insignificant
/// pairs contribute cor = 0, per Definition 1. Gateways with fewer than 2
/// windows or no comparable pair (a granularity that does not divide the
/// window yields none) are skipped for that point.
Result<std::vector<AggregationPoint>> SweepAggregations(
    const std::vector<ts::TimeSeries>& gateways,
    const std::vector<int64_t>& granularities_minutes,
    const AggregationSweepOptions& options);

/// \brief The granularity with the highest mean correlation —
/// `use_stationary` selects which curve to maximize.
Result<int64_t> BestGranularity(const std::vector<AggregationPoint>& sweep,
                                bool use_stationary);

/// \brief Per-weekday stationarity breakdown of one gateway at one
/// granularity (Figure 7's stacking); returns the number of strongly
/// stationary weekdays (0..7).
Result<size_t> StationaryWeekdayCount(const ts::TimeSeries& series,
                                      int64_t granularity_minutes,
                                      const StationarityOptions& options = {});

}  // namespace homets::core

#endif  // HOMETS_CORE_AGGREGATION_H_
