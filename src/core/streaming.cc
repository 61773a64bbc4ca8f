#include "core/streaming.h"

#include <algorithm>

#include "common/strings.h"
#include "core/similarity.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace homets::core {

Result<WindowAssembler> WindowAssembler::Make(int64_t window_minutes,
                                              int64_t granularity_minutes,
                                              int64_t anchor_offset_minutes) {
  if (window_minutes <= 0 || granularity_minutes <= 0) {
    return Status::InvalidArgument(
        "WindowAssembler: window and granularity must be positive");
  }
  if (window_minutes % granularity_minutes != 0) {
    return Status::InvalidArgument(
        "WindowAssembler: granularity must divide the window");
  }
  return WindowAssembler(window_minutes, granularity_minutes,
                         anchor_offset_minutes);
}

int64_t WindowAssembler::WindowStartFor(int64_t minute) const {
  int64_t rem = (minute - anchor_offset_minutes_) % window_minutes_;
  if (rem < 0) rem += window_minutes_;
  return minute - rem;
}

void WindowAssembler::ResetWindow(GatewayState* state,
                                  int64_t window_start) const {
  const size_t bins =
      static_cast<size_t>(window_minutes_ / granularity_minutes_);
  state->window_start = window_start;
  state->started = true;
  state->bins.assign(bins, 0.0);
  state->bin_has_data.assign(bins, false);
}

ts::TimeSeries WindowAssembler::EmitWindow(GatewayState* state) const {
  std::vector<double> values(state->bins.size());
  for (size_t b = 0; b < state->bins.size(); ++b) {
    values[b] =
        state->bin_has_data[b] ? state->bins[b] : ts::TimeSeries::Missing();
  }
  return ts::TimeSeries(state->window_start, granularity_minutes_,
                        std::move(values));
}

Result<std::vector<ts::TimeSeries>> WindowAssembler::Ingest(int gateway_id,
                                                            int64_t minute,
                                                            double value) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const observations =
      registry.GetCounter(obs::kStreamingObservationsIngested);
  static obs::Counter* const assembled =
      registry.GetCounter(obs::kStreamingWindowsAssembled);
  observations->Increment();
  GatewayState& state = gateways_[gateway_id];
  std::vector<ts::TimeSeries> completed;
  if (!state.started) {
    ResetWindow(&state, WindowStartFor(minute));
  }
  if (minute < state.window_start) {
    return Status::InvalidArgument(StrFormat(
        "WindowAssembler: minute %lld before current window start %lld",
        static_cast<long long>(minute),
        static_cast<long long>(state.window_start)));
  }
  // Close windows the stream has moved past.
  while (minute >= state.window_start + window_minutes_) {
    completed.push_back(EmitWindow(&state));
    ResetWindow(&state, state.window_start + window_minutes_);
  }
  assembled->Increment(completed.size());
  if (!ts::TimeSeries::IsMissing(value)) {
    const size_t bin = static_cast<size_t>(
        (minute - state.window_start) / granularity_minutes_);
    state.bins[bin] += value;
    state.bin_has_data[bin] = true;
  }
  return completed;
}

std::vector<std::pair<int, ts::TimeSeries>> WindowAssembler::Flush() {
  static obs::Counter* const assembled =
      obs::MetricsRegistry::Global().GetCounter(
          obs::kStreamingWindowsAssembled);
  std::vector<std::pair<int, ts::TimeSeries>> out;
  for (auto& [gateway_id, state] : gateways_) {
    if (!state.started) continue;
    bool any = false;
    for (bool has : state.bin_has_data) any = any || has;
    if (any) out.emplace_back(gateway_id, EmitWindow(&state));
    state.started = false;
  }
  assembled->Increment(out.size());
  return out;
}

StreamingMotifMiner::StreamingMotifMiner(MotifOptions options,
                                         size_t horizon_windows)
    : options_(options),
      horizon_windows_(horizon_windows == 0 ? 1 : horizon_windows) {}

Result<size_t> StreamingMotifMiner::AddWindow(int gateway_id,
                                              const ts::TimeSeries& window) {
  if (!retained_.empty() &&
      retained_.front().window.size() != window.size()) {
    return Status::InvalidArgument(
        "StreamingMotifMiner: window length mismatch");
  }
  const size_t index = next_index_++;
  provenance_.push_back({gateway_id, window.start_minute()});
  // Profile the window once on arrival; every comparison it participates in
  // across its retained lifetime reuses the prepared form.
  retained_.push_back(
      {index, window, correlation::PreparedSeries::Make(window.values())});
  // retained_ is ordered by arrival index, and Evict drops evicted indices
  // from every motif, so every member is retained.
  auto cor = [this](size_t a, size_t b) {
    const size_t first = retained_.front().index;
    return CorrelationSimilarity(retained_[a - first].prepared,
                                 retained_[b - first].prepared,
                                 {options_.alpha}, &workspace_)
        .value;
  };

  const int best = BestAdmissibleMotif(
      motifs_, options_, [&](size_t member) { return cor(index, member); });
  size_t joined_id;
  if (best >= 0) {
    MotifCandidate& joined = motifs_[static_cast<size_t>(best)];
    joined.members.push_back(index);
    joined.changed = true;
    joined_id = joined.id;
  } else {
    joined_id = next_motif_id_++;
    motifs_.push_back({joined_id, {index}});
  }
  static obs::Counter* const merges = obs::MetricsRegistry::Global().GetCounter(
      obs::kStreamingMotifsMerged);
  // motifs_ stays in id order (appended on creation, erased in place), so
  // the surviving side of a merge holds the older id.
  const size_t merged = MergeMotifs(&motifs_, options_, cor);
  if (merged > 0) {
    merges->Increment(merged);
    // Assignment sums member correlations in arrival order.
    for (auto& motif : motifs_) {
      std::sort(motif.members.begin(), motif.members.end());
    }
  }
  Evict();
  return joined_id;
}

void StreamingMotifMiner::Evict() {
  static obs::Counter* const evictions =
      obs::MetricsRegistry::Global().GetCounter(
          obs::kStreamingWindowsEvicted);
  while (retained_.size() > horizon_windows_) {
    const size_t evicted = retained_.front().index;
    retained_.pop_front();
    evictions->Increment();
    for (auto& motif : motifs_) {
      const auto end =
          std::remove(motif.members.begin(), motif.members.end(), evicted);
      if (end == motif.members.end()) continue;
      motif.members.erase(end, motif.members.end());
      motif.changed = true;
    }
  }
  motifs_.erase(std::remove_if(motifs_.begin(), motifs_.end(),
                               [](const MotifCandidate& m) {
                                 return m.members.empty();
                               }),
                motifs_.end());
}

std::vector<Motif> StreamingMotifMiner::CurrentMotifs() const {
  std::vector<Motif> out;
  for (const auto& state : motifs_) {
    if (state.members.size() >= options_.min_support) {
      out.push_back({state.members});
    }
  }
  // Same deterministic order as MotifDiscovery::Discover: descending
  // support, ties broken by the earliest member index.
  std::sort(out.begin(), out.end(), [](const Motif& a, const Motif& b) {
    if (a.support() != b.support()) return a.support() > b.support();
    return a.members.front() < b.members.front();
  });
  return out;
}

}  // namespace homets::core
