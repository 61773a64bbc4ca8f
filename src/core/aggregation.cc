#include "core/aggregation.h"

#include <algorithm>

#include "core/similarity.h"
#include "core/similarity_engine.h"

namespace homets::core {

namespace {

// Re-bins and cuts into the period's windows. A granularity that does not
// divide the window yields no windows.
Result<std::vector<ts::TimeSeries>> MakeWindows(const ts::TimeSeries& series,
                                                int64_t granularity_minutes,
                                                int64_t anchor_offset_minutes,
                                                PatternPeriod period) {
  const int64_t window_minutes = period == PatternPeriod::kWeekly
                                     ? ts::kMinutesPerWeek
                                     : ts::kMinutesPerDay;
  std::vector<ts::TimeSeries> windows =
      ts::AggregateWindows(series, granularity_minutes, window_minutes,
                           anchor_offset_minutes);
  if (windows.size() < 2) {
    return Status::InvalidArgument("fewer than 2 pattern windows");
  }
  return windows;
}

// Mean pairwise cor(·,·); for kDaily only same-weekday pairs count. Windows
// are profiled once and only the comparable pairs are computed (for kDaily
// that skips the ~6/7 cross-weekday pairs entirely).
Result<double> MeanPairCorrelation(const std::vector<ts::TimeSeries>& windows,
                                   PatternPeriod period) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t i = 0; i < windows.size(); ++i) {
    for (size_t j = i + 1; j < windows.size(); ++j) {
      if (period == PatternPeriod::kDaily &&
          ts::DayOfWeekAt(windows[i].start_minute()) !=
              ts::DayOfWeekAt(windows[j].start_minute())) {
        continue;
      }
      pairs.emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
    }
  }
  if (pairs.empty()) {
    return Status::InvalidArgument("no comparable window pairs");
  }
  const SimilarityEngine engine;
  const std::vector<SimilarityResult> sims =
      engine.PairwiseSelected(SimilarityEngine::PrepareWindows(windows), pairs);
  double sum = 0.0;
  for (const SimilarityResult& sim : sims) sum += sim.value;
  return sum / static_cast<double>(pairs.size());
}

}  // namespace

Result<std::vector<AggregationPoint>> SweepAggregations(
    const std::vector<ts::TimeSeries>& gateways,
    const std::vector<int64_t>& granularities_minutes,
    const AggregationSweepOptions& options) {
  if (gateways.empty()) {
    return Status::InvalidArgument("SweepAggregations: no gateways");
  }
  std::vector<AggregationPoint> sweep;
  sweep.reserve(granularities_minutes.size());
  for (const int64_t g : granularities_minutes) {
    AggregationPoint point;
    point.granularity_minutes = g;
    double sum_all = 0.0;
    double sum_stat = 0.0;
    for (const auto& series : gateways) {
      auto windows = MakeWindows(series, g, options.anchor_offset_minutes,
                                 options.period);
      if (!windows.ok()) continue;
      auto mean_cor = MeanPairCorrelation(*windows, options.period);
      if (!mean_cor.ok()) continue;
      sum_all += *mean_cor;
      ++point.gateways_all;

      bool stationary = false;
      if (options.period == PatternPeriod::kWeekly) {
        auto check =
            CheckStrongStationarity(*windows, options.stationarity);
        stationary = check.ok() && check->strongly_stationary;
      } else {
        auto check =
            CheckWeekdayStationarity(*windows, options.stationarity);
        stationary = check.ok() && CountStationaryWeekdays(*check) >= 1;
      }
      if (stationary) {
        sum_stat += *mean_cor;
        ++point.gateways_stationary;
      }
    }
    if (point.gateways_all > 0) {
      point.mean_correlation_all =
          sum_all / static_cast<double>(point.gateways_all);
    }
    if (point.gateways_stationary > 0) {
      point.mean_correlation_stationary =
          sum_stat / static_cast<double>(point.gateways_stationary);
    }
    sweep.push_back(point);
  }
  return sweep;
}

Result<int64_t> BestGranularity(const std::vector<AggregationPoint>& sweep,
                                bool use_stationary) {
  const AggregationPoint* best = nullptr;
  for (const auto& point : sweep) {
    const size_t n =
        use_stationary ? point.gateways_stationary : point.gateways_all;
    if (n == 0) continue;
    const double value = use_stationary ? point.mean_correlation_stationary
                                        : point.mean_correlation_all;
    const double best_value =
        best == nullptr
            ? -1.0
            : (use_stationary ? best->mean_correlation_stationary
                              : best->mean_correlation_all);
    if (best == nullptr || value > best_value) best = &point;
  }
  if (best == nullptr) {
    return Status::NotFound("BestGranularity: no evaluable granularity");
  }
  return best->granularity_minutes;
}

Result<size_t> StationaryWeekdayCount(const ts::TimeSeries& series,
                                      int64_t granularity_minutes,
                                      const StationarityOptions& options) {
  HOMETS_ASSIGN_OR_RETURN(
      const std::vector<ts::TimeSeries> windows,
      MakeWindows(series, granularity_minutes, 0, PatternPeriod::kDaily));
  HOMETS_ASSIGN_OR_RETURN(const auto results,
                          CheckWeekdayStationarity(windows, options));
  return CountStationaryWeekdays(results);
}

}  // namespace homets::core
