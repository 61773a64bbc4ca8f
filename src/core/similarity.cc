#include "core/similarity.h"

#include <algorithm>

namespace homets::core {

std::string SimilaritySourceName(SimilaritySource source) {
  switch (source) {
    case SimilaritySource::kNone:
      return "none";
    case SimilaritySource::kPearson:
      return "pearson";
    case SimilaritySource::kSpearman:
      return "spearman";
    case SimilaritySource::kKendall:
      return "kendall";
  }
  return "none";
}

SimilarityResult CorrelationSimilarity(const std::vector<double>& x,
                                       const std::vector<double>& y,
                                       const SimilarityOptions& options) {
  return CorrelationSimilarity(correlation::PreparedSeries::Make(x),
                               correlation::PreparedSeries::Make(y), options);
}

SimilarityResult CorrelationSimilarity(const correlation::PreparedSeries& x,
                                       const correlation::PreparedSeries& y,
                                       const SimilarityOptions& options,
                                       correlation::PairWorkspace* workspace) {
  SimilarityResult result;
  const auto consider = [&](Result<correlation::CorrelationTest> test,
                            SimilaritySource source) {
    if (!test.ok()) return;  // degenerate inputs: treated as not significant
    result.n = std::max(result.n, test->n);
    if (!test->Significant(options.alpha)) return;
    // Definition 1 takes the maximum of the significant coefficients.
    if (!result.significant || test->coefficient > result.value) {
      result.value = test->coefficient;
      result.source = source;
    }
    result.significant = true;
  };
  consider(correlation::Pearson(x, y, workspace), SimilaritySource::kPearson);
  consider(correlation::Spearman(x, y, workspace),
           SimilaritySource::kSpearman);
  consider(correlation::Kendall(x, y, workspace), SimilaritySource::kKendall);
  return result;
}

SimilarityResult CorrelationSimilarity(const ts::TimeSeries& x,
                                       const ts::TimeSeries& y,
                                       const SimilarityOptions& options) {
  if (x.step_minutes() <= 0 || y.step_minutes() <= 0 ||
      x.step_minutes() != y.step_minutes() ||
      (x.start_minute() - y.start_minute()) % x.step_minutes() != 0) {
    // Misaligned or degenerate grids share no aligned bins; the step guard
    // keeps a default-constructed series from hitting modulo-by-zero UB.
    return SimilarityResult{};
  }
  const int64_t begin = std::max(x.start_minute(), y.start_minute());
  const int64_t end = std::min(x.EndMinute(), y.EndMinute());
  if (begin >= end) return SimilarityResult{};
  auto xs = x.Slice(begin, end);
  auto ys = y.Slice(begin, end);
  if (!xs.ok() || !ys.ok()) return SimilarityResult{};
  return CorrelationSimilarity(xs->values(), ys->values(), options);
}

double CorrelationDistance(const std::vector<double>& x,
                           const std::vector<double>& y,
                           const SimilarityOptions& options) {
  return 1.0 - CorrelationSimilarity(x, y, options).value;
}

}  // namespace homets::core
