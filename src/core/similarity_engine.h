#ifndef HOMETS_CORE_SIMILARITY_ENGINE_H_
#define HOMETS_CORE_SIMILARITY_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/similarity.h"
#include "correlation/prepared_series.h"
#include "ts/time_series.h"

namespace homets::core {

/// \brief Options for the parallel pairwise similarity engine.
struct SimilarityEngineOptions {
  SimilarityOptions similarity;  ///< Definition 1 parameters per pair
  /// Worker threads: 0 means hardware concurrency. Output is deterministic
  /// (bit-identical) for every thread count.
  int threads = 0;
};

/// \brief Condensed symmetric matrix of Definition 1 results over n windows:
/// the upper triangle (i < j) stored row-major, n(n−1)/2 entries.
class SimilarityMatrix {
 public:
  SimilarityMatrix() = default;
  explicit SimilarityMatrix(size_t n)
      : n_(n), cells_(n < 2 ? 0 : n * (n - 1) / 2) {}

  size_t size() const { return n_; }
  size_t pair_count() const { return cells_.size(); }

  /// Full result for a pair; requires i != j (the diagonal is not stored).
  const SimilarityResult& At(size_t i, size_t j) const {
    return cells_[CondensedIndex(n_, i, j)];
  }

  /// cor(i, j); 1 on the diagonal by convention.
  double Value(size_t i, size_t j) const {
    return i == j ? 1.0 : At(i, j).value;
  }

  /// 1 − cor(i, j) for every i < j, row-major — the Figure 3 clustering
  /// distance, ready for cluster::DistanceMatrix::FromCondensed.
  std::vector<double> CondensedDistances() const;

  SimilarityResult* mutable_cells() { return cells_.data(); }
  const std::vector<SimilarityResult>& cells() const { return cells_; }

  /// Index of (i, j), i < j, in the condensed layout.
  static size_t CondensedIndex(size_t n, size_t i, size_t j) {
    if (i > j) std::swap(i, j);
    return i * n - i * (i + 1) / 2 + (j - i - 1);
  }

  /// Inverse of CondensedIndex: the (i, j) pair at condensed position k.
  static std::pair<size_t, size_t> PairAt(size_t n, size_t k);

 private:
  size_t n_ = 0;
  std::vector<SimilarityResult> cells_;
};

/// \brief Parallel pairwise similarity over prepared windows.
///
/// Prepares each window exactly once (O(n log n) per window) and computes
/// Definition 1 for every requested pair with the prepared kernels, spread
/// over a chunked thread pool. Each pair's result is written to a slot that
/// depends only on the pair, so matrices are bit-identical across thread
/// counts — the contract the stationarity/granularity/clustering consumers
/// rely on.
class SimilarityEngine {
 public:
  explicit SimilarityEngine(SimilarityEngineOptions options = {})
      : options_(options) {}

  const SimilarityEngineOptions& options() const { return options_; }

  /// Profiles every window's values once (all profiles).
  static std::vector<correlation::PreparedSeries> PrepareWindows(
      const std::vector<ts::TimeSeries>& windows);
  static std::vector<correlation::PreparedSeries> PrepareVectors(
      const std::vector<std::vector<double>>& series);

  /// Full condensed pairwise matrix over the prepared windows, every cell
  /// computed; bit-identical for every thread count.
  SimilarityMatrix Pairwise(
      const std::vector<correlation::PreparedSeries>& prepared) const;

  /// Definition 1 for an explicit pair list (e.g. the same-weekday pairs of
  /// the daily granularity search); results are in pair-list order.
  std::vector<SimilarityResult> PairwiseSelected(
      const std::vector<correlation::PreparedSeries>& prepared,
      const std::vector<std::pair<uint32_t, uint32_t>>& pairs) const;

 private:
  SimilarityEngineOptions options_;
};

}  // namespace homets::core

#endif  // HOMETS_CORE_SIMILARITY_ENGINE_H_
