#include "stats/ranks.h"

#include <algorithm>
#include <numeric>

namespace homets::stats {

std::vector<double> AverageRanks(const std::vector<double>& xs) {
  const size_t n = xs.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&xs](size_t a, size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Positions i..j (0-based) tie; average rank is the mean of i+1..j+1.
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 +
                       1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

}  // namespace homets::stats
