#ifndef HOMETS_STATS_RANKS_H_
#define HOMETS_STATS_RANKS_H_

#include <cstddef>
#include <vector>

namespace homets::stats {

/// \brief Fractional (average) ranks, 1-based, with ties receiving the mean
/// of the ranks they span — the convention Spearman's ρ requires.
///
/// Example: {10, 20, 20, 30} → {1, 2.5, 2.5, 4}.
std::vector<double> AverageRanks(const std::vector<double>& xs);

}  // namespace homets::stats

#endif  // HOMETS_STATS_RANKS_H_
