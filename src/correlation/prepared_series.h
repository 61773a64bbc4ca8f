#ifndef HOMETS_CORRELATION_PREPARED_SERIES_H_
#define HOMETS_CORRELATION_PREPARED_SERIES_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "correlation/coefficients.h"

namespace homets::correlation {

/// \brief Which per-series profiles PreparedSeries::Make computes.
///
/// Each pairwise kernel needs only one profile: Pearson the moments,
/// Spearman the ranks, Kendall the sort order. Callers that run all three
/// (the Definition 1 similarity, the SimilarityEngine) use kAllProfiles.
enum ProfileMask : uint32_t {
  kMomentProfile = 1u << 0,  ///< mean + centered sum of squares
  kRankProfile = 1u << 1,    ///< tie-averaged ranks + their moments
  kSortProfile = 1u << 2,    ///< ascending permutation + tie structure
  kAllProfiles = kMomentProfile | kRankProfile | kSortProfile,
};

/// \brief Tie-correction sums over a sample's tie groups, precomputed once
/// per series for Kendall's τ-b (Σ over groups of size t).
struct TieSums {
  double pairs = 0.0;     ///< Σ t(t−1)/2
  double triple = 0.0;    ///< Σ t(t−1)(t−2)
  double weighted = 0.0;  ///< Σ t(t−1)(2t+5)
  double pair_raw = 0.0;  ///< Σ t(t−1)
};

/// \brief The radix sort's buffers for profiling series of
/// PreparedSeries::kRadixMinSize values or more. A caller that profiles many
/// long series keeps one and passes it to every PreparedSeries::Profile, so
/// the sort allocates nothing once the buffers have grown.
struct ProfileScratch {
  /// A non-zero, non-NaN value's order key and its index.
  struct KeyedIndex {
    uint64_t key;
    uint32_t index;
  };
  std::vector<KeyedIndex> items;  ///< the values to sort, then sorted
  std::vector<KeyedIndex> spare;  ///< the other buffer of each radix pass
};

/// \brief One-time O(n log n) profile of a window, reusable across every
/// pairwise comparison the window participates in.
///
/// Every pairwise workload in the paper (stationarity pairs, granularity
/// search, dominance, motifs, the Figure 3 distance matrix) compares the
/// same windows against many partners; profiling each window once turns the
/// per-pair cost of Definition 1 from "re-sort everything" into O(n) product
/// passes for Pearson/Spearman and an O(n log g) tree count for Kendall.
///
/// Profiles are only materialized for NaN-free series with >= 3 values;
/// kernels fall back to the pairwise-complete gather path otherwise (the
/// complete subset depends on both partners, so nothing per-series can be
/// reused). Results are bit-identical to the legacy vector API either way.
class PreparedSeries {
 public:
  PreparedSeries() = default;

  /// Series at least this long sort by radix, shorter ones by comparison,
  /// with the same profiles bit for bit. 160 sits just above the measured
  /// crossover (DESIGN.md §5), so the n = 8 motif windows and 56-bin weekly
  /// windows keep the comparison sort.
  static constexpr size_t kRadixMinSize = 160;

  /// Profiles `values`: Profile on a fresh series with its own scratch.
  static PreparedSeries Make(std::vector<double> values,
                             uint32_t profiles = kAllProfiles);

  /// Profiles this series again in place: one O(n) pass for the moments,
  /// one sort shared by the rank and sort profiles (O(n log n) below
  /// kRadixMinSize values, near-linear from there). The new values are
  /// swapped in from `*values`, which gets the old values' buffer back, so
  /// a caller that refills `*values` each time ping-pongs two buffers. Every
  /// field is reset first, and every buffer keeps its capacity, so the
  /// result equals Make's bit for bit and a steady-state caller allocates
  /// nothing. `scratch` (may be null: a local one) holds the radix sort's
  /// buffers.
  void Profile(std::vector<double>* values, uint32_t profiles = kAllProfiles,
               ProfileScratch* scratch = nullptr);

  /// Gives every buffer room for a series of `n` values, so that profiling
  /// series of up to `n` values in place never grows one, whatever their
  /// tie groups.
  void Reserve(size_t n);

  const std::vector<double>& values() const { return values_; }
  size_t size() const { return values_.size(); }
  bool has_nan() const { return has_nan_; }
  uint32_t profiles() const { return profiles_; }

  /// True when the profiled fast path applies against `other`: both sides
  /// NaN-free, same length, and long enough for any coefficient.
  bool PairableWith(const PreparedSeries& other) const {
    return !has_nan_ && !other.has_nan_ && values_.size() == other.size() &&
           values_.size() >= 3;
  }

  // Moment profile (Pearson).
  double mean() const { return mean_; }
  double centered_ss() const { return centered_ss_; }
  /// Constant series: Pearson/Spearman are incomputable (ComputeError).
  bool constant() const { return constant_; }

  // Rank profile (Spearman): tie-averaged ranks plus their own moments.
  const std::vector<double>& ranks() const { return ranks_; }
  double rank_mean() const { return rank_mean_; }
  double rank_centered_ss() const { return rank_centered_ss_; }

  // Sort profile (Kendall): stable ascending permutation of the values,
  // boundaries of the tie groups in that order, and the tie-correction sums.
  const std::vector<uint32_t>& sort_order() const { return sort_order_; }
  /// Tie-group boundaries: group g spans sort positions
  /// [group_offsets[g], group_offsets[g+1]).
  const std::vector<uint32_t>& group_offsets() const { return group_offsets_; }
  const TieSums& tie_sums() const { return tie_sums_; }

 private:
  std::vector<double> values_;
  bool has_nan_ = false;
  uint32_t profiles_ = 0;

  double mean_ = 0.0;
  double centered_ss_ = 0.0;
  bool constant_ = true;

  std::vector<double> ranks_;
  double rank_mean_ = 0.0;
  double rank_centered_ss_ = 0.0;

  std::vector<uint32_t> sort_order_;
  std::vector<uint32_t> group_offsets_;
  TieSums tie_sums_;
};

/// \brief Reusable per-pair scratch space. Kernels allocate locally when
/// `nullptr` is passed; parallel callers keep one workspace per worker so
/// the hot loop never touches the allocator. Kendall resets every buffer it
/// uses at the start of each pair.
struct PairWorkspace {
  std::vector<uint32_t> ids;         ///< partner tie-group id per index
  std::vector<uint32_t> tree;        ///< Fenwick tree over partner ids >= 1
  std::vector<uint32_t> tie_counts;  ///< partner ids seen in one lead group
  std::vector<double> xc, yc;        ///< gather space for the NaN fallback
};

/// \brief Pearson's r over two prepared series; O(n) when the fast path
/// applies. Bit-identical to Pearson(x, y) on the same value vectors.
Result<CorrelationTest> Pearson(const PreparedSeries& x,
                                const PreparedSeries& y,
                                PairWorkspace* workspace = nullptr);

/// \brief Spearman's ρ over two prepared series; O(n) when the fast path
/// applies (ranks are precomputed). Bit-identical to Spearman(x, y).
Result<CorrelationTest> Spearman(const PreparedSeries& x,
                                 const PreparedSeries& y,
                                 PairWorkspace* workspace = nullptr);

/// \brief Kendall's τ-b over two prepared series. The per-pair work is one
/// walk over the sort order of the side with more tie groups (the lead),
/// counting discordant pairs in a Fenwick tree over the other side's dense
/// tie-group ids: O(n log g) for g partner groups. The pairs with a member
/// in the partner's minimum tie group are counted first, in one O(n) pass
/// with no tree. The permutations and tie sums come from the profiles. The
/// gather fallback profiles the complete pairs and runs the same count.
/// Bit-identical to Kendall(x, y).
///
/// `floor` turns the count into a decision: once the discordant pairs
/// counted so far prove τ-b ≤ `floor`, the count stops and the result is
/// `bounded`, its coefficient an upper bound of τ-b at or below `floor`
/// (DESIGN.md §5, "Definition 4 as a threshold decision"). The bound is
/// τ-b's own expression with the joint ties at their maximum, so it is never
/// below the τ-b the full count returns, bit for bit. At the default floor
/// nothing is cut.
Result<CorrelationTest> Kendall(
    const PreparedSeries& x, const PreparedSeries& y,
    PairWorkspace* workspace = nullptr,
    double floor = -std::numeric_limits<double>::infinity());

/// \brief Kendall's τ-b and its p-value over n pairs, from the discordant
/// pair count, the count of pairs tied on both sides, and each side's tie
/// sums. Constant input (no untied pair on a side) is ComputeError.
Result<CorrelationTest> KendallFromCounts(size_t n, uint64_t discordant,
                                          uint64_t joint_ties,
                                          const TieSums& tx, const TieSums& ty);

/// \brief Null variance of S = n_c − n_d over n pairs with the given ties:
/// the tie-adjusted form of standard statistical packages, which
/// KendallFromCounts turns into a normal-approximation p-value.
double KendallNullVariance(size_t n, const TieSums& tx, const TieSums& ty);

}  // namespace homets::correlation

#endif  // HOMETS_CORRELATION_PREPARED_SERIES_H_
