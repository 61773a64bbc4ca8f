#include "core/stationarity.h"

#include <algorithm>

#include "core/similarity_engine.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stattests/ks_test.h"

namespace homets::core {

Result<StationarityResult> CheckStrongStationarity(
    const std::vector<ts::TimeSeries>& windows,
    const StationarityOptions& options) {
  if (windows.size() < 2) {
    return Status::InvalidArgument(
        "CheckStrongStationarity: need >= 2 windows");
  }
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const windows_tested =
      registry.GetCounter(obs::kStationarityWindowsTested);
  static obs::Counter* const window_pairs =
      registry.GetCounter(obs::kStationarityWindowPairs);
  static obs::Counter* const ks_rejections =
      registry.GetCounter(obs::kStationarityKsRejections);
  static obs::Counter* const pairs_below_phi =
      registry.GetCounter(obs::kStationarityPairsBelowPhi);
  obs::ScopedSpan span("stationarity.check");
  windows_tested->Increment(windows.size());
  StationarityResult result;
  result.min_pair_similarity = 1.0;
  result.correlation_ok = true;
  result.distribution_ok = true;
  // Each window is profiled once; Definition 2's all-pairs comparison then
  // runs on the prepared kernels (parallel for large window sets).
  SimilarityEngineOptions engine_options;
  engine_options.similarity.alpha = options.alpha;
  const SimilarityMatrix sims = SimilarityEngine(engine_options).Pairwise(
      SimilarityEngine::PrepareWindows(windows));
  for (size_t i = 0; i < windows.size(); ++i) {
    for (size_t j = i + 1; j < windows.size(); ++j) {
      ++result.window_pairs;
      const SimilarityResult& sim = sims.At(i, j);
      result.min_pair_similarity =
          std::min(result.min_pair_similarity, sim.value);
      if (!(sim.value > options.phi)) {
        result.correlation_ok = false;
        pairs_below_phi->Increment();
      }
      auto ks = stattests::KolmogorovSmirnov(windows[i].values(),
                                             windows[j].values());
      if (!ks.ok()) {
        // A window with < 2 observations cannot pass the distribution check.
        result.distribution_ok = false;
        result.min_ks_p_value = 0.0;
        ks_rejections->Increment();
        continue;
      }
      result.min_ks_p_value = std::min(result.min_ks_p_value, ks->p_value);
      if (ks->Rejected(options.alpha)) {
        result.distribution_ok = false;
        ks_rejections->Increment();
      }
    }
  }
  window_pairs->Increment(result.window_pairs);
  result.strongly_stationary =
      result.correlation_ok && result.distribution_ok;
  return result;
}

Result<std::vector<StationarityResult>> CheckWeekdayStationarity(
    const std::vector<ts::TimeSeries>& daily_windows,
    const StationarityOptions& options) {
  std::vector<std::vector<ts::TimeSeries>> by_weekday(ts::kDaysPerWeek);
  for (const auto& window : daily_windows) {
    const auto day = ts::DayOfWeekAt(window.start_minute());
    by_weekday[static_cast<size_t>(day)].push_back(window);
  }
  std::vector<StationarityResult> results(ts::kDaysPerWeek);
  for (size_t d = 0; d < by_weekday.size(); ++d) {
    if (by_weekday[d].size() < 2) {
      results[d] = StationarityResult{};  // not enough evidence
      continue;
    }
    HOMETS_ASSIGN_OR_RETURN(results[d],
                            CheckStrongStationarity(by_weekday[d], options));
  }
  return results;
}

size_t CountStationaryWeekdays(
    const std::vector<StationarityResult>& results) {
  size_t count = 0;
  for (const auto& r : results) {
    if (r.strongly_stationary) ++count;
  }
  return count;
}

}  // namespace homets::core
