#include "core/anomaly.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/similarity.h"

namespace homets::core {

Result<std::vector<WindowAnomaly>> FindPatternAnomalies(
    const std::vector<ts::TimeSeries>& windows,
    const std::vector<WindowProvenance>& provenance,
    const std::vector<Motif>& motifs, const AnomalyOptions& options) {
  if (windows.size() != provenance.size()) {
    return Status::InvalidArgument(
        "FindPatternAnomalies: windows/provenance size mismatch");
  }
  if (windows.empty()) {
    return Status::InvalidArgument("FindPatternAnomalies: no windows");
  }

  // Which motifs does each gateway participate in, and with which windows?
  // A window is scored only against patterns established by the gateway's
  // *other* windows — otherwise a deviant window that happens to match some
  // other home's motif (and joins it) would vouch for itself.
  std::map<int, std::map<size_t, std::vector<size_t>>> gateway_motif_members;
  for (size_t m = 0; m < motifs.size(); ++m) {
    for (size_t member : motifs[m].members) {
      if (member >= provenance.size()) continue;
      const int gw = provenance[member].gateway_id;
      gateway_motif_members[gw][m].push_back(member);
    }
  }

  // Consensus shapes, computed once per motif.
  std::vector<std::vector<double>> shapes(motifs.size());
  for (size_t m = 0; m < motifs.size(); ++m) {
    auto shape = MotifShape(windows, motifs[m]);
    if (shape.ok()) shapes[m] = std::move(shape).value();
  }

  SimilarityOptions sim_options;
  sim_options.alpha = options.alpha;
  std::vector<WindowAnomaly> anomalies;
  for (size_t w = 0; w < windows.size(); ++w) {
    const int gw = provenance[w].gateway_id;
    const auto pattern_it = gateway_motif_members.find(gw);
    if (pattern_it == gateway_motif_members.end()) continue;
    size_t pattern_windows = 0;
    for (const auto& [m, members] : pattern_it->second) {
      for (size_t member : members) {
        if (member != w) ++pattern_windows;
      }
    }
    if (pattern_windows < kMinPatternWindows) {
      continue;  // no established pattern
    }
    double best = -1.0;
    for (const auto& [m, members] : pattern_it->second) {
      if (shapes[m].empty()) continue;
      // Skip motifs whose only local evidence is the window under test.
      const bool has_other_member =
          members.size() > 1 || (members.size() == 1 && members[0] != w);
      if (!has_other_member) continue;
      const double cor =
          CorrelationSimilarity(windows[w].values(), shapes[m], sim_options)
              .value;
      best = std::max(best, cor);
    }
    if (best < 0.0) continue;
    if (best < options.similarity_floor) {
      WindowAnomaly anomaly;
      anomaly.window_index = w;
      anomaly.gateway_id = gw;
      anomaly.start_minute = provenance[w].start_minute;
      anomaly.best_pattern_similarity = best;
      anomaly.window_volume = windows[w].Sum();
      anomalies.push_back(anomaly);
    }
  }
  std::sort(anomalies.begin(), anomalies.end(),
            [](const WindowAnomaly& a, const WindowAnomaly& b) {
              return a.best_pattern_similarity < b.best_pattern_similarity;
            });
  return anomalies;
}

}  // namespace homets::core
