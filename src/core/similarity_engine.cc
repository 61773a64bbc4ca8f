#include "core/similarity_engine.h"

#include <cmath>
#include <functional>

#include "common/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace homets::core {

std::vector<double> SimilarityMatrix::CondensedDistances() const {
  std::vector<double> distances(cells_.size());
  for (size_t k = 0; k < cells_.size(); ++k) {
    distances[k] = 1.0 - cells_[k].value;
  }
  return distances;
}

std::pair<size_t, size_t> SimilarityMatrix::PairAt(size_t n, size_t k) {
  // Row i owns indices [offset(i), offset(i+1)) with
  // offset(i) = i*n − i(i+1)/2. Invert with a float guess, then fix up.
  const double nf = static_cast<double>(n);
  const double kf = static_cast<double>(k);
  double guess =
      (2.0 * nf - 1.0 - std::sqrt((2.0 * nf - 1.0) * (2.0 * nf - 1.0) -
                                  8.0 * kf)) /
      2.0;
  size_t i = guess <= 0.0 ? 0 : static_cast<size_t>(guess);
  if (i >= n - 1) i = n - 2;
  auto offset = [n](size_t row) { return row * n - row * (row + 1) / 2; };
  while (i > 0 && offset(i) > k) --i;
  while (offset(i + 1) <= k) ++i;
  return {i, i + 1 + (k - offset(i))};
}

std::vector<correlation::PreparedSeries> SimilarityEngine::PrepareWindows(
    const std::vector<ts::TimeSeries>& windows) {
  std::vector<correlation::PreparedSeries> prepared;
  prepared.reserve(windows.size());
  for (const auto& window : windows) {
    prepared.push_back(correlation::PreparedSeries::Make(window.values()));
  }
  return prepared;
}

std::vector<correlation::PreparedSeries> SimilarityEngine::PrepareVectors(
    const std::vector<std::vector<double>>& series) {
  std::vector<correlation::PreparedSeries> prepared;
  prepared.reserve(series.size());
  for (const auto& values : series) {
    prepared.push_back(correlation::PreparedSeries::Make(values));
  }
  return prepared;
}

namespace {

// ~64 pairs per dispatch block: coarse enough to amortize the atomic
// hand-off, fine enough to balance tie-heavy vs degenerate pairs.
constexpr size_t kPairsPerBlock = 64;

// Workloads below this many pairs run inline: spawning threads would cost
// more than the work.
constexpr size_t kMinParallelPairs = 256;

// The one pair loop: runs `block(begin, end, workspace)` over ranges of
// [0, pairs) on the pool, one PairWorkspace per worker.
void ForEachPairBlock(
    size_t pairs, const SimilarityEngineOptions& options,
    const std::function<void(size_t, size_t, correlation::PairWorkspace&)>&
        block) {
  if (pairs == 0) return;
  static obs::Counter* const pairs_computed =
      obs::MetricsRegistry::Global().GetCounter(obs::kEnginePairsComputed);
  obs::StageTimer stage("similarity_engine.pairwise");
  const int threads = pairs < kMinParallelPairs ? 1 : options.threads;
  std::vector<correlation::PairWorkspace> workspaces(
      static_cast<size_t>(ResolveThreadCount(threads)));
  ParallelFor(pairs, threads, kPairsPerBlock,
              [&](size_t begin, size_t end, int worker) {
                block(begin, end, workspaces[static_cast<size_t>(worker)]);
              });
  pairs_computed->Increment(pairs);
}

}  // namespace

SimilarityMatrix SimilarityEngine::Pairwise(
    const std::vector<correlation::PreparedSeries>& prepared) const {
  const size_t n = prepared.size();
  SimilarityMatrix matrix(n);
  SimilarityResult* cells = matrix.mutable_cells();
  ForEachPairBlock(
      matrix.pair_count(), options_,
      [&](size_t begin, size_t end, correlation::PairWorkspace& ws) {
        auto [i, j] = SimilarityMatrix::PairAt(n, begin);
        for (size_t k = begin; k < end; ++k) {
          cells[k] = CorrelationSimilarity(prepared[i], prepared[j],
                                           options_.similarity, &ws);
          if (++j == n) {
            ++i;
            j = i + 1;
          }
        }
      });
  return matrix;
}

std::vector<SimilarityResult> SimilarityEngine::PairwiseSelected(
    const std::vector<correlation::PreparedSeries>& prepared,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs) const {
  std::vector<SimilarityResult> results(pairs.size());
  ForEachPairBlock(
      pairs.size(), options_,
      [&](size_t begin, size_t end, correlation::PairWorkspace& ws) {
        for (size_t k = begin; k < end; ++k) {
          results[k] = CorrelationSimilarity(prepared[pairs[k].first],
                                             prepared[pairs[k].second],
                                             options_.similarity, &ws);
        }
      });
  return results;
}

}  // namespace homets::core
