#ifndef HOMETS_CORE_STREAMING_H_
#define HOMETS_CORE_STREAMING_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/status.h"
#include "core/motif.h"
#include "core/motif_rules.h"
#include "correlation/prepared_series.h"
#include "ts/time_series.h"

namespace homets::core {

/// \brief Assembles fixed-length, calendar-aligned windows from streaming
/// per-minute measurements — the ingestion stage of the paper's
/// "integrate into a streaming analytics platform" conclusion.
///
/// Observations may arrive in arbitrary chunks but must be time-ordered per
/// gateway. When a window [anchor + k·W, anchor + (k+1)·W) closes (an
/// observation at or past its end arrives), the aggregated window is emitted.
class WindowAssembler {
 public:
  /// `window_minutes` must be a multiple of `granularity_minutes`.
  static Result<WindowAssembler> Make(int64_t window_minutes,
                                      int64_t granularity_minutes,
                                      int64_t anchor_offset_minutes);

  /// Feeds one observation (1-minute bin). Returns the windows completed by
  /// this observation (usually none, occasionally one; several after a long
  /// gap). Out-of-order minutes within the current window are accepted;
  /// minutes before the current window are rejected.
  Result<std::vector<ts::TimeSeries>> Ingest(int gateway_id, int64_t minute,
                                             double value);

  /// Flushes the partially filled window of every gateway (end of stream).
  std::vector<std::pair<int, ts::TimeSeries>> Flush();

 private:
  WindowAssembler(int64_t window_minutes, int64_t granularity_minutes,
                  int64_t anchor_offset_minutes)
      : window_minutes_(window_minutes),
        granularity_minutes_(granularity_minutes),
        anchor_offset_minutes_(anchor_offset_minutes) {}

  struct GatewayState {
    int64_t window_start = 0;      ///< current window begin
    bool started = false;
    std::vector<double> bins;      ///< per-granularity sums
    std::vector<bool> bin_has_data;
  };

  int64_t WindowStartFor(int64_t minute) const;
  ts::TimeSeries EmitWindow(GatewayState* state) const;
  void ResetWindow(GatewayState* state, int64_t window_start) const;

  int64_t window_minutes_;
  int64_t granularity_minutes_;
  int64_t anchor_offset_minutes_;
  std::map<int, GatewayState> gateways_;
};

/// \brief Incremental motif maintenance over a stream of completed windows.
///
/// Applies Definition 5's membership rules online: each arriving window
/// joins the best motif satisfying the individual- and group-similarity
/// conditions, else seeds a new candidate; after every arrival the paper's
/// merge rule runs until no pair merges. Windows older than
/// `horizon_windows` arrivals are evicted, so the retained windows and their
/// motifs stay bounded on an infinite stream; provenance() still grows by
/// one entry per window seen.
class StreamingMotifMiner {
 public:
  StreamingMotifMiner(MotifOptions options, size_t horizon_windows);

  /// Adds a completed window; returns the (possibly new) motif id it joined,
  /// where ids are stable across the stream. Windows must share one length.
  Result<size_t> AddWindow(int gateway_id, const ts::TimeSeries& window);

  /// Motifs with support >= options.min_support among the retained horizon,
  /// sorted by descending support. Provenance indices refer to AddWindow
  /// arrival order.
  std::vector<Motif> CurrentMotifs() const;

  /// Provenance of every window seen, indexed by arrival index; entries of
  /// evicted windows are kept.
  const std::vector<WindowProvenance>& provenance() const {
    return provenance_;
  }

  size_t windows_seen() const { return next_index_; }
  size_t windows_retained() const { return retained_.size(); }

 private:
  struct StoredWindow {
    size_t index;  ///< arrival index
    ts::TimeSeries window;
    /// One-time similarity profile of `window`; every comparison this window
    /// participates in over its retained lifetime reuses it.
    correlation::PreparedSeries prepared;
  };

  void Evict();

  MotifOptions options_;
  size_t horizon_windows_;
  size_t next_index_ = 0;
  size_t next_motif_id_ = 0;
  std::deque<StoredWindow> retained_;
  std::vector<MotifCandidate> motifs_;  ///< members: retained arrival indices
  std::vector<WindowProvenance> provenance_;  ///< by arrival index
  correlation::PairWorkspace workspace_;  ///< reused per-pair buffers
};

}  // namespace homets::core

#endif  // HOMETS_CORE_STREAMING_H_
