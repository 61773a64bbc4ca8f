#include "core/motif.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "core/motif_rules.h"
#include "core/similarity.h"
#include "core/similarity_engine.h"
#include "correlation/prepared_series.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace homets::core {

namespace {

// Pairwise cor(·,·) cache; motif mining revisits pairs during the merge
// phase. Every window is profiled once up front so repeated comparisons pay
// only the per-pair kernel cost, never a re-rank or re-sort.
class SimilarityCache {
 public:
  SimilarityCache(const std::vector<ts::TimeSeries>& windows, double alpha)
      : prepared_(SimilarityEngine::PrepareWindows(windows)) {
    options_.alpha = alpha;
  }

  double Get(size_t i, size_t j) {
    if (i == j) return 1.0;
    if (i > j) std::swap(i, j);
    const uint64_t key = (static_cast<uint64_t>(i) << 32) | j;
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
    const double value =
        CorrelationSimilarity(prepared_[i], prepared_[j], options_,
                              &workspace_)
            .value;
    cache_.emplace(key, value);
    return value;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  std::vector<correlation::PreparedSeries> prepared_;
  SimilarityOptions options_;
  correlation::PairWorkspace workspace_;
  std::unordered_map<uint64_t, double> cache_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace

std::vector<ts::TimeSeries> MotifWindows(const ts::TimeSeries& series,
                                         const MotifWindowing& windowing) {
  obs::StageTimer stage("motif.windows");
  return ts::AggregateWindows(series, windowing.granularity_minutes,
                              windowing.window_minutes,
                              windowing.anchor_offset_minutes);
}

int BestAdmissibleMotif(const std::vector<MotifCandidate>& motifs,
                        const MotifOptions& options,
                        const std::function<double(size_t)>& cor_with_new) {
  const double group_threshold = kMotifGroupFactor * options.phi;
  int best_motif = -1;
  double best_score = -2.0;
  for (size_t m = 0; m < motifs.size(); ++m) {
    bool individual = false;
    bool group = true;
    double sum = 0.0;
    for (size_t member : motifs[m].members) {
      const double cor = cor_with_new(member);
      if (cor >= options.phi) individual = true;
      if (cor < group_threshold) {
        group = false;
        break;
      }
      sum += cor;
    }
    if (!individual || !group) continue;
    const double score = sum / static_cast<double>(motifs[m].members.size());
    if (score > best_score) {
      best_score = score;
      best_motif = static_cast<int>(m);
    }
  }
  return best_motif;
}

size_t MergeMotifs(std::vector<MotifCandidate>* motifs,
                   const std::function<double(size_t, size_t)>& pair_cor) {
  auto all_cross_pairs_high = [&](const MotifCandidate& a,
                                  const MotifCandidate& b) {
    for (size_t ma : a.members) {
      for (size_t mb : b.members) {
        if (pair_cor(ma, mb) < kMotifMergeThreshold) return false;
      }
    }
    return true;
  };
  std::vector<MotifCandidate>& m = *motifs;
  size_t merges = 0;
  bool merged = true;
  while (merged) {
    merged = false;
    for (size_t a = 0; a < m.size() && !merged; ++a) {
      for (size_t b = a + 1; b < m.size() && !merged; ++b) {
        if (!m[a].changed && !m[b].changed) continue;
        if (!all_cross_pairs_high(m[a], m[b])) continue;
        m[a].members.insert(m[a].members.end(), m[b].members.begin(),
                            m[b].members.end());
        m[a].changed = true;
        m.erase(m.begin() + static_cast<long>(b));
        merged = true;
        ++merges;
      }
    }
  }
  for (auto& motif : m) motif.changed = false;
  return merges;
}

Result<std::vector<Motif>> MotifDiscovery::Discover(
    const std::vector<ts::TimeSeries>& windows) const {
  if (windows.empty()) {
    return Status::InvalidArgument("MotifDiscovery: no windows");
  }
  const size_t length = windows.front().size();
  for (const auto& w : windows) {
    if (w.size() != length) {
      return Status::InvalidArgument(
          "MotifDiscovery: windows must share one length");
    }
  }
  if (options_.phi <= 0.0 || options_.phi > 1.0) {
    return Status::InvalidArgument("MotifDiscovery: phi must be in (0, 1]");
  }

  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const windows_mined =
      registry.GetCounter(obs::kMotifWindowsMined);
  static obs::Counter* const motifs_merged =
      registry.GetCounter(obs::kMotifMotifsMerged);
  static obs::Counter* const motifs_reported =
      registry.GetCounter(obs::kMotifMotifsReported);
  static obs::Counter* const cache_hits =
      registry.GetCounter(obs::kMotifCacheHits);
  static obs::Counter* const cache_misses =
      registry.GetCounter(obs::kMotifCacheMisses);
  obs::StageTimer stage("motif.discover");
  windows_mined->Increment(windows.size());

  SimilarityCache cache(windows, options_.alpha);
  // Greedy pass: each window joins the best admissible motif, then one merge
  // phase over the finished motifs.
  std::vector<MotifCandidate> motifs;
  for (size_t w = 0; w < windows.size(); ++w) {
    const int best = BestAdmissibleMotif(
        motifs, options_, [&](size_t member) { return cache.Get(w, member); });
    if (best >= 0) {
      motifs[static_cast<size_t>(best)].members.push_back(w);
    } else {
      motifs.push_back({motifs.size(), {w}});
    }
  }
  motifs_merged->Increment(MergeMotifs(
      &motifs, [&](size_t a, size_t b) { return cache.Get(a, b); }));

  std::vector<Motif> reported;
  for (auto& motif : motifs) {
    if (motif.members.size() >= kMotifMinSupport) {
      std::sort(motif.members.begin(), motif.members.end());
      reported.push_back({std::move(motif.members)});
    }
  }
  // Descending support; equal-support motifs tie-break on the earliest
  // member index so the reported order is a pure function of the input.
  std::sort(reported.begin(), reported.end(),
            [](const Motif& x, const Motif& y) {
              if (x.support() != y.support()) return x.support() > y.support();
              return x.members.front() < y.members.front();
            });
  motifs_reported->Increment(reported.size());
  cache_hits->Increment(cache.hits());
  cache_misses->Increment(cache.misses());
  return reported;
}

Result<std::vector<double>> MotifShape(
    const std::vector<ts::TimeSeries>& windows, const Motif& motif) {
  if (motif.members.empty()) {
    return Status::InvalidArgument("MotifShape: empty motif");
  }
  const size_t length = windows[motif.members.front()].size();
  std::vector<double> shape(length, 0.0);
  std::vector<size_t> counts(length, 0);
  for (size_t member : motif.members) {
    const ts::TimeSeries z = ts::ZNormalize(windows[member]);
    for (size_t i = 0; i < length && i < z.size(); ++i) {
      if (ts::TimeSeries::IsMissing(z[i])) continue;
      shape[i] += z[i];
      ++counts[i];
    }
  }
  for (size_t i = 0; i < length; ++i) {
    shape[i] = counts[i] > 0 ? shape[i] / static_cast<double>(counts[i]) : 0.0;
  }
  return shape;
}

std::vector<std::pair<size_t, size_t>> SupportHistogram(
    const std::vector<Motif>& motifs) {
  std::map<size_t, size_t> hist;
  for (const auto& motif : motifs) ++hist[motif.support()];
  return {hist.begin(), hist.end()};
}

std::vector<std::pair<int, size_t>> MotifsPerGateway(
    const std::vector<Motif>& motifs,
    const std::vector<WindowProvenance>& provenance) {
  std::map<int, size_t> counts;
  for (const auto& motif : motifs) {
    std::map<int, bool> seen;
    for (size_t member : motif.members) {
      if (member >= provenance.size()) continue;
      const int gw = provenance[member].gateway_id;
      if (!seen[gw]) {
        seen[gw] = true;
        ++counts[gw];
      }
    }
  }
  return {counts.begin(), counts.end()};
}

double WithinGatewayFraction(const Motif& motif,
                             const std::vector<WindowProvenance>& provenance) {
  if (motif.members.empty()) return 0.0;
  std::map<int, size_t> per_gateway;
  for (size_t member : motif.members) {
    if (member >= provenance.size()) continue;
    ++per_gateway[provenance[member].gateway_id];
  }
  size_t repeated = 0;
  for (const auto& [gw, count] : per_gateway) {
    if (count > 1) repeated += count;
  }
  return static_cast<double>(repeated) /
         static_cast<double>(motif.members.size());
}

}  // namespace homets::core
