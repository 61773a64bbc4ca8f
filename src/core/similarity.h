#ifndef HOMETS_CORE_SIMILARITY_H_
#define HOMETS_CORE_SIMILARITY_H_

#include <string>
#include <vector>

#include "correlation/prepared_series.h"
#include "ts/time_series.h"

namespace homets::core {

/// \brief Which coefficient supplied the correlation similarity value.
enum class SimilaritySource { kNone, kPearson, kSpearman, kKendall };

std::string SimilaritySourceName(SimilaritySource source);

/// \brief Detailed outcome of Definition 1.
struct SimilarityResult {
  /// cor(X, Y): the maximum statistically significant coefficient, or 0
  /// when none is significant (including degenerate/constant inputs).
  double value = 0.0;
  SimilaritySource source = SimilaritySource::kNone;
  bool significant = false;
  size_t n = 0;  ///< complete pairs used
};

/// \brief Options for the correlation similarity measure.
struct SimilarityOptions {
  double alpha = 0.05;  ///< significance level for every coefficient test
};

/// \brief The paper's correlation similarity measure (Definition 1):
/// cor(X, Y) = max of the statistically significant Pearson, Spearman and
/// Kendall coefficients, 0 if none is significant.
///
/// Insignificant and incomputable (constant series, too few pairs)
/// coefficients are skipped; all three failing yields value 0 with
/// `significant = false` — by design, not an error, since zeroed-out
/// background-free windows are routine inputs. Prepares each side once and
/// runs the prepared-series form below.
SimilarityResult CorrelationSimilarity(const std::vector<double>& x,
                                       const std::vector<double>& y,
                                       const SimilarityOptions& options = {});

/// \brief Prepared-series form: reuses each side's one-time profile
/// (correlation::PreparedSeries) so a window compared against many partners
/// is never re-ranked or re-sorted. `workspace` (optional) avoids per-pair
/// allocations in batch loops; see correlation::PairWorkspace.
SimilarityResult CorrelationSimilarity(
    const correlation::PreparedSeries& x, const correlation::PreparedSeries& y,
    const SimilarityOptions& options = {},
    correlation::PairWorkspace* workspace = nullptr);

/// \brief TimeSeries overload; compares the overlapping aligned bins.
///
/// Precondition: both series use the same positive `step_minutes` and their
/// start minutes differ by a multiple of it (aligned bin grids). Misaligned
/// or degenerate grids — including a zero/negative step on either side —
/// share no aligned bins and yield the zero result, never UB.
SimilarityResult CorrelationSimilarity(const ts::TimeSeries& x,
                                       const ts::TimeSeries& y,
                                       const SimilarityOptions& options = {});

/// \brief Distance form 1 − cor(X, Y), the measure used for hierarchical
/// clustering (Figure 3). Range [0, 2].
double CorrelationDistance(const std::vector<double>& x,
                           const std::vector<double>& y,
                           const SimilarityOptions& options = {});

}  // namespace homets::core

#endif  // HOMETS_CORE_SIMILARITY_H_
