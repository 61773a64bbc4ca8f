#ifndef HOMETS_CORE_SIMILARITY_ENGINE_H_
#define HOMETS_CORE_SIMILARITY_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
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
  /// Workloads below this many pairs run inline — thread spawn would cost
  /// more than the work.
  size_t min_parallel_pairs = 256;
  /// Cooperative cancellation for PairwiseChecked, polled at block
  /// granularity. Not owned; may be nullptr.
  CancellationToken* cancel = nullptr;
  /// Wall-clock budget for one PairwiseChecked call in milliseconds;
  /// 0 disables the deadline. Checked at block granularity, so a call stops
  /// within one block of the deadline and returns kDeadlineExceeded.
  double deadline_ms = 0.0;
  /// PairwiseChecked under an injected task failure (`engine.pair_block`
  /// failpoint): false returns the failing block's error; true marks the
  /// block's cells invalid in the matrix validity mask and keeps going, so
  /// downstream stages degrade over partial results instead of aborting.
  bool degrade_on_failure = false;
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
  /// distance, ready for cluster::DistanceMatrix::FromCondensed. Invalid
  /// cells (see the validity mask) map to the maximum distance 1.0, the
  /// conservative "not similar" reading of a pair that could not be computed.
  std::vector<double> CondensedDistances() const;

  SimilarityResult* mutable_cells() { return cells_.data(); }
  const std::vector<SimilarityResult>& cells() const { return cells_; }

  /// \name Validity mask
  /// PairwiseChecked marks cells whose task failed (degrade mode) invalid;
  /// a default-constructed matrix has every cell valid and allocates no
  /// mask. Downstream consumers must skip invalid cells rather than read
  /// their (zero-initialized) results.
  ///@{
  /// Allocates the mask (all-valid). Must be called before MarkInvalid and
  /// before any concurrent marking starts.
  void EnsureValidityMask() {
    if (invalid_.size() != cells_.size()) invalid_.assign(cells_.size(), 0);
  }
  /// Marks condensed cell `k` invalid. Distinct `k` may be marked from
  /// different threads once the mask is allocated.
  void MarkInvalid(size_t k) { invalid_[k] = 1; }
  bool IsValidIndex(size_t k) const {
    return invalid_.empty() || invalid_[k] == 0;
  }
  bool IsValid(size_t i, size_t j) const {
    return i == j || IsValidIndex(CondensedIndex(n_, i, j));
  }
  /// Number of invalid cells; 0 means the matrix is complete.
  size_t invalid_count() const;
  bool complete() const { return invalid_count() == 0; }
  ///@}

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
  /// Empty = all cells valid; else one flag per condensed cell (1 = the
  /// pair's task failed and the cell holds no result).
  std::vector<uint8_t> invalid_;
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

  /// PrepareWindows under a "similarity_engine.prepare" span.
  std::vector<correlation::PreparedSeries> Prepare(
      const std::vector<ts::TimeSeries>& windows) const;

  /// Full condensed pairwise matrix over the prepared windows.
  SimilarityMatrix Pairwise(
      const std::vector<correlation::PreparedSeries>& prepared) const;

  /// Hardened Pairwise: honors options().cancel and options().deadline_ms at
  /// block granularity and survives injected task failures (the
  /// `engine.pair_block` failpoint). Returns kCancelled / kDeadlineExceeded
  /// when stopped early; under a task failure, returns the deterministic
  /// lowest-block error, or — with options().degrade_on_failure — an OK
  /// matrix whose failed cells are flagged in the validity mask. With no
  /// cancellation, deadline, or fault in play the result is bit-identical
  /// to Pairwise() for every thread count.
  Result<SimilarityMatrix> PairwiseChecked(
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
