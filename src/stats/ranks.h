#ifndef HOMETS_STATS_RANKS_H_
#define HOMETS_STATS_RANKS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace homets::stats {

/// \brief Fractional (average) ranks, 1-based, with ties receiving the mean
/// of the ranks they span — the convention Spearman's ρ requires.
///
/// Example: {10, 20, 20, 30} → {1, 2.5, 2.5, 4}.
std::vector<double> AverageRanks(const std::vector<double>& xs);

/// \brief The order key of a non-zero, non-NaN double: keys compare as
/// unsigned integers the way the values compare. A negative value's bits are
/// flipped (larger magnitude, smaller key), a positive value gets its sign
/// bit set (above every negative). Equal keys are equal doubles, since only
/// the two zeros share a value across bit patterns and zeros get no key.
inline uint64_t OrderKey(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

/// \brief The value whose OrderKey is `key`. OrderKey(+0.0), the key just
/// below every positive value's, decodes to +0.0.
inline double FromOrderKey(uint64_t key) {
  return std::bit_cast<double>((key >> 63) != 0 ? key & ~(uint64_t{1} << 63)
                                                : ~key);
}

}  // namespace homets::stats

#endif  // HOMETS_STATS_RANKS_H_
