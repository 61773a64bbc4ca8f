#include "stats/boxplot.h"

#include <algorithm>
#include <cstddef>

#include "stats/descriptive.h"

namespace homets::stats {

Result<Boxplot> ComputeBoxplot(std::vector<double> xs, double whisker_factor) {
  if (xs.empty()) return Status::InvalidArgument("ComputeBoxplot: empty input");
  if (whisker_factor < 0.0) {
    return Status::InvalidArgument("ComputeBoxplot: negative whisker factor");
  }
  std::sort(xs.begin(), xs.end());
  Boxplot box;
  box.q1 = SortedQuantile(xs, 0.25);
  box.median = SortedQuantile(xs, 0.5);
  box.q3 = SortedQuantile(xs, 0.75);
  box.iqr = box.q3 - box.q1;
  const double lo_fence = box.q1 - whisker_factor * box.iqr;
  const double hi_fence = box.q3 + whisker_factor * box.iqr;
  // Whiskers reach to the most extreme observations inside the fences; with
  // all data outside a fence (degenerate), fall back to the quartile itself.
  box.lower_whisker = box.q1;
  box.upper_whisker = box.q3;
  for (double x : xs) {
    if (x >= lo_fence) {
      box.lower_whisker = x;
      break;
    }
  }
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) {
    if (*it <= hi_fence) {
      box.upper_whisker = *it;
      break;
    }
  }
  for (double x : xs) {
    if (x < lo_fence || x > hi_fence) box.outliers.push_back(x);
  }
  return box;
}

Result<double> UpperWhisker(std::vector<double> xs, double whisker_factor) {
  if (xs.empty()) return Status::InvalidArgument("UpperWhisker: empty input");
  if (whisker_factor < 0.0) {
    return Status::InvalidArgument("UpperWhisker: negative whisker factor");
  }
  const size_t n = xs.size();
  // One observation is its own quartiles and whisker (SortedQuantile returns
  // it as is, so no interpolation arithmetic may touch it either).
  if (n == 1) return xs[0];
  // SortedQuantile's arithmetic on the two order statistics it reads,
  // selected instead of sorted: nth_element places the lo-th, and the next
  // one is the minimum of what lies above it. xs[first, n) always holds the
  // n - first largest values, so q3 only selects within q1's upper part.
  size_t first = 0;
  const auto quantile = [&xs, &first, n](double q) {
    const double pos = q * static_cast<double>(n - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    std::nth_element(xs.begin() + static_cast<std::ptrdiff_t>(first),
                     xs.begin() + static_cast<std::ptrdiff_t>(lo), xs.end());
    first = lo;
    const double at_lo = xs[lo];
    const double at_hi =
        hi == lo ? at_lo
                 : *std::min_element(
                       xs.begin() + static_cast<std::ptrdiff_t>(hi), xs.end());
    return at_lo + frac * (at_hi - at_lo);
  };
  const double q1 = quantile(0.25);
  const double q3 = quantile(0.75);
  const double hi_fence = q3 + whisker_factor * (q3 - q1);
  // Largest observation inside the fence, as ComputeBoxplot's backward scan
  // of the sorted sample finds it; q3 itself when none is.
  double whisker = q3;
  bool inside = false;
  for (const double x : xs) {
    if (x <= hi_fence && (!inside || x > whisker)) {
      whisker = x;
      inside = true;
    }
  }
  return whisker;
}

}  // namespace homets::stats
