#include "correlation/coefficients.h"

#include <algorithm>
#include <cmath>

#include "correlation/prepared_series.h"

namespace homets::correlation {

void CompletePairs(const std::vector<double>& x, const std::vector<double>& y,
                   std::vector<double>* xc, std::vector<double>* yc) {
  const size_t n = std::min(x.size(), y.size());
  xc->clear();
  yc->clear();
  xc->reserve(n);
  yc->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(x[i]) || std::isnan(y[i])) continue;
    xc->push_back(x[i]);
    yc->push_back(y[i]);
  }
}

// The vector API is a thin wrapper over the prepared-series kernels
// (correlation/prepared_series.h): each call profiles both inputs with just
// the profile its coefficient needs, so one-shot costs match the historical
// direct implementation while batch callers share profiles across pairs.

Result<CorrelationTest> Pearson(const std::vector<double>& x,
                                const std::vector<double>& y) {
  return Pearson(PreparedSeries::Make(x, kMomentProfile),
                 PreparedSeries::Make(y, kMomentProfile));
}

Result<CorrelationTest> Spearman(const std::vector<double>& x,
                                 const std::vector<double>& y) {
  return Spearman(PreparedSeries::Make(x, kRankProfile),
                  PreparedSeries::Make(y, kRankProfile));
}

Result<CorrelationTest> Kendall(const std::vector<double>& x,
                                const std::vector<double>& y) {
  return Kendall(PreparedSeries::Make(x, kSortProfile),
                 PreparedSeries::Make(y, kSortProfile));
}

}  // namespace homets::correlation
