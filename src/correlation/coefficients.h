#ifndef HOMETS_CORRELATION_COEFFICIENTS_H_
#define HOMETS_CORRELATION_COEFFICIENTS_H_

#include <vector>

#include "common/status.h"

namespace homets::correlation {

/// \brief Outcome of a correlation significance test.
///
/// The zero hypothesis is "no correlation" (coefficient = 0); `p_value` is
/// two-sided. The paper gates every coefficient on `p_value < 0.05`
/// (Definition 1).
struct CorrelationTest {
  double coefficient = 0.0;
  double p_value = 1.0;
  size_t n = 0;  ///< number of complete pairs used
  /// Kendall only: the count stopped once τ-b ≤ its floor was proven (see
  /// the prepared-series Kendall). `coefficient` is then an upper bound of
  /// τ-b at or below the floor, and no p-value was computed.
  bool bounded = false;

  /// True when the null is rejected at level `alpha`.
  bool Significant(double alpha = 0.05) const { return p_value < alpha; }
};

/// \brief Drops index pairs where either input is NaN (pairwise-complete
/// observations). Outputs are parallel vectors.
void CompletePairs(const std::vector<double>& x, const std::vector<double>& y,
                   std::vector<double>* xc, std::vector<double>* yc);

/// \brief Pearson's r with a two-sided t-test p-value (dof = n − 2).
///
/// Requires >= 3 complete pairs and non-constant inputs; degenerate inputs
/// yield ComputeError (Definition 1 treats those as not significant).
Result<CorrelationTest> Pearson(const std::vector<double>& x,
                                const std::vector<double>& y);

/// \brief Spearman's ρ: Pearson on tie-averaged ranks, t-approximation
/// p-value.
Result<CorrelationTest> Spearman(const std::vector<double>& x,
                                 const std::vector<double>& y);

/// \brief Kendall's τ-b with tie corrections, computed in O(n log n) (both
/// sort profiles, then a Fenwick-tree pair count); p-value by the
/// tie-adjusted normal approximation.
Result<CorrelationTest> Kendall(const std::vector<double>& x,
                                const std::vector<double>& y);

}  // namespace homets::correlation

#endif  // HOMETS_CORRELATION_COEFFICIENTS_H_
