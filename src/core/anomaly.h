#ifndef HOMETS_CORE_ANOMALY_H_
#define HOMETS_CORE_ANOMALY_H_

#include <vector>

#include "common/status.h"
#include "core/motif.h"
#include "ts/time_series.h"

namespace homets::core {

/// \brief A window that broke its gateway's established pattern.
///
/// The introduction's troubleshooting use case: recurring motifs provide
/// "strong evidence of regular user activity" to contrast with a user's
/// trouble report. A window is anomalous for its gateway when it matches
/// none of the patterns that gateway usually follows.
struct WindowAnomaly {
  size_t window_index = 0;       ///< index into the scored windows
  int gateway_id = 0;
  int64_t start_minute = 0;
  /// Best correlation similarity to any motif the gateway participates in
  /// (against that motif's consensus shape); low = unusual day/week.
  double best_pattern_similarity = 0.0;
  /// Total traffic of the window (to tell silent outages from wild usage).
  double window_volume = 0.0;
};

/// Gateways must participate in at least this many motif member windows
/// (besides the window under test) to have an established pattern worth
/// deviating from.
inline constexpr size_t kMinPatternWindows = 3;

/// \brief Options for pattern-deviation scoring.
struct AnomalyOptions {
  /// A window is anomalous when its best similarity to its gateway's motif
  /// shapes stays below this.
  double similarity_floor = 0.4;
  double alpha = 0.05;  ///< significance level inside cor(·,·)
};

/// \brief Scores every window against the motif shapes of its own gateway
/// and returns the anomalous ones, most deviant first.
///
/// `windows`/`provenance` are the motif-mining inputs and `motifs` its
/// output. Windows of gateways without an established pattern are skipped —
/// no pattern, no anomaly.
Result<std::vector<WindowAnomaly>> FindPatternAnomalies(
    const std::vector<ts::TimeSeries>& windows,
    const std::vector<WindowProvenance>& provenance,
    const std::vector<Motif>& motifs, const AnomalyOptions& options = {});

}  // namespace homets::core

#endif  // HOMETS_CORE_ANOMALY_H_
