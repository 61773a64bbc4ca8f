#ifndef HOMETS_CORE_MOTIF_H_
#define HOMETS_CORE_MOTIF_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ts/time_series.h"

namespace homets::core {

/// \brief Provenance of a candidate window: which gateway and when.
struct WindowProvenance {
  int gateway_id = 0;
  int64_t start_minute = 0;
};

/// \brief A motif: a set of mutually similar, time-aligned windows
/// (Definition 5). `members` index into the window list given to
/// MotifDiscovery::Discover.
struct Motif {
  std::vector<size_t> members;

  size_t support() const { return members.size(); }
};

/// \brief How motif mining cuts a series into windows: bins of
/// `granularity_minutes`, windows of `window_minutes`, both anchored
/// `anchor_offset_minutes` past midnight (ts::AggregateWindows,
/// WindowAssembler).
struct MotifWindowing {
  int64_t granularity_minutes;
  int64_t window_minutes;
  int64_t anchor_offset_minutes;
};

/// The paper's daily motifs: 3-hour bins over one day from midnight.
inline constexpr MotifWindowing kDailyMotifWindowing{180, ts::kMinutesPerDay,
                                                     0};
/// The paper's weekly motifs: 8-hour bins over one week, anchored at 2am.
inline constexpr MotifWindowing kWeeklyMotifWindowing{480, ts::kMinutesPerWeek,
                                                      120};

/// \brief `series` cut into `windowing`'s windows by ts::AggregateWindows.
std::vector<ts::TimeSeries> MotifWindows(const ts::TimeSeries& series,
                                         const MotifWindowing& windowing);

/// Group similarity: every member pair must reach cor >= kMotifGroupFactor · φ
/// (¾ in the paper).
inline constexpr double kMotifGroupFactor = 0.75;
/// Motifs are merged when all cross pairs reach this correlation.
inline constexpr double kMotifMergeThreshold = 0.6;
/// Minimum support for a reported motif; support-1 "motifs" are not
/// recurring patterns.
inline constexpr size_t kMotifMinSupport = 2;

/// \brief Options for Definition 5.
struct MotifOptions {
  /// Individual-similarity threshold φ: a new window must reach cor >= φ
  /// with at least one member of the motif it joins.
  double phi = 0.8;
  double alpha = 0.05;  ///< significance level inside cor(·,·)
};

/// \brief Motif miner over fixed-length, time-aligned windows.
///
/// The discovery is a greedy agglomeration (single pass in window order,
/// each window joining the best motif that satisfies both Definition 5
/// conditions, else seeding a new one) followed by the paper's merge rule.
/// Results are sorted by descending support.
class MotifDiscovery {
 public:
  explicit MotifDiscovery(MotifOptions options = {}) : options_(options) {}

  const MotifOptions& options() const { return options_; }

  /// Mines motifs from windows (all the same length; typically produced by
  /// ts::SliceWindows on aggregated, background-free traffic).
  Result<std::vector<Motif>> Discover(
      const std::vector<ts::TimeSeries>& windows) const;

 private:
  MotifOptions options_;
};

/// \brief Consensus shape of a motif: pointwise mean of the z-normalized
/// member windows. Used by benches to label motifs ("evening usage", ...).
Result<std::vector<double>> MotifShape(
    const std::vector<ts::TimeSeries>& windows, const Motif& motif);

/// \brief Support histogram (Figure 9): counts of motifs per support value.
/// Returns (support, count) pairs sorted by support.
std::vector<std::pair<size_t, size_t>> SupportHistogram(
    const std::vector<Motif>& motifs);

/// \brief Number of distinct motifs each gateway participates in
/// (Figure 10). Returns (gateway_id, motif_count) pairs for gateways with at
/// least one membership.
std::vector<std::pair<int, size_t>> MotifsPerGateway(
    const std::vector<Motif>& motifs,
    const std::vector<WindowProvenance>& provenance);

/// \brief Fraction of a motif's members that share a gateway with another
/// member — the "% occur within the same gateways" annotation of
/// Figures 11/14.
double WithinGatewayFraction(const Motif& motif,
                             const std::vector<WindowProvenance>& provenance);

}  // namespace homets::core

#endif  // HOMETS_CORE_MOTIF_H_
