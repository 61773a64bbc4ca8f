#include "stats/boxplot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>

#include "stats/descriptive.h"
#include "stats/ranks.h"

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

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;
constexpr uint64_t kInfinityBits = 0x7FF0000000000000;
// A key's bucket is its top 12 bits: the sign and the exponent.
constexpr int kBucketShift = 52;
constexpr size_t kBuckets = size_t{1} << 12;
// Values per step of the key pass (32 KiB of keys).
constexpr size_t kKeyBlock = 4096;

// Moves the keys of bucket `bucket` to the front of `keys`, keeping every
// key. Each step swaps keys[i] with keys[front] under a mask, with no branch
// on the data, and carries keys[front] in a register, so that a step which
// moves nothing reloads nothing it stored.
void GatherBucket(std::span<uint64_t> keys, uint64_t bucket) {
  const size_t last = keys.size() - 1;
  size_t front = 0;
  uint64_t at_front = keys[0];
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t key = keys[i];
    // 1 when the key is in the bucket (the difference is below 2^12).
    const uint64_t in = (((key >> kBucketShift) ^ bucket) - 1) >> 63;
    const uint64_t mask = 0 - in;
    // What keys[front + 1] holds once this step has swapped.
    const size_t next = std::min(front + 1, last);
    const uint64_t at_next = next == i ? at_front : keys[next];
    keys[i] = key ^ ((key ^ at_front) & mask);
    keys[front] = at_front ^ ((at_front ^ key) & mask);
    at_front ^= (at_front ^ at_next) & mask;
    front += in;
  }
}

struct KeyCounts {
  size_t keys = 0;
  size_t zeros = 0;
};

// The key pass over `values`, with no branch on the data: every value's key
// is written at the end of the run in `key`, which grows only past a value
// that is neither zero (of either sign) nor NaN. Zeros are counted instead.
// The tests are sign bits of wrapped differences, not comparisons, which the
// compiler may turn back into a branch.
KeyCounts WriteKeys(std::span<const double> values, uint64_t* key) {
  size_t m = 0;
  size_t zeros = 0;
  for (const double v : values) {
    const uint64_t magnitude = std::bit_cast<uint64_t>(v) & ~kSignBit;
    const uint64_t zero = (magnitude - 1) >> 63;
    const uint64_t nan = (kInfinityBits - magnitude) >> 63;
    key[m] = OrderKey(v);
    zeros += zero;
    m += 1 - zero - nan;
  }
  return {m, zeros};
}

}  // namespace

Result<UpperWhiskerResult> UpperWhisker(std::span<const double> values,
                                        std::vector<uint64_t>* keys,
                                        double whisker_factor) {
  if (whisker_factor < 0.0) {
    return Status::InvalidArgument("UpperWhisker: negative whisker factor");
  }
  if (values.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("UpperWhisker: more than 2^32 values");
  }
  // The buffer grows one block ahead of the keys, not to the whole span at
  // once: resize() zeroes what it adds, and a direction whose device was
  // seen for part of its span would page in grid that no key reaches.
  keys->reserve(values.size());
  size_t m = 0;
  size_t zeros = 0;
  for (size_t begin = 0; begin < values.size(); begin += kKeyBlock) {
    const auto block =
        values.subspan(begin, std::min(kKeyBlock, values.size() - begin));
    if (keys->size() < m + block.size()) keys->resize(m + block.size());
    const KeyCounts counts = WriteKeys(block, keys->data() + m);
    m += counts.keys;
    zeros += counts.zeros;
  }
  const std::span<uint64_t> key(keys->data(), m);
  const size_t n = m + zeros;
  if (n == 0) return Status::InvalidArgument("UpperWhisker: no observations");
  UpperWhiskerResult result;
  result.observations = n;
  // One observation is its own quartiles and whisker (SortedQuantile returns
  // it as is, so no interpolation arithmetic may touch it either).
  if (n == 1) {
    result.value = m == 1 ? FromOrderKey(key[0]) : 0.0;
    return result;
  }

  // Bucket histogram as starts: the keys of bucket b have key ranks
  // [start[b], start[b + 1]). Negative keys fill the lower half.
  std::array<uint32_t, kBuckets + 1> start{};
  for (const uint64_t k : key) ++start[(k >> kBucketShift) + 1];
  for (size_t b = 1; b <= kBuckets; ++b) start[b] += start[b - 1];
  const size_t negatives = start[kBuckets / 2];

  // The value at rank r of the sorted sample: negatives, then the zero block
  // (each +0.0), then positives. Called with non-decreasing ranks, so within
  // the gathered bucket key[first, count) holds what lies above the last
  // rank selected.
  size_t front = kBuckets;
  size_t count = 0;
  size_t first = 0;
  size_t last_rank = n;
  double last_value = 0.0;
  const auto at_rank = [&](size_t r) {
    if (r == last_rank) return last_value;
    last_rank = r;
    if (r >= negatives && r < negatives + zeros) return last_value = 0.0;
    const size_t k = r < negatives ? r : r - zeros;
    const size_t b = static_cast<size_t>(
        std::upper_bound(start.begin(), start.end(), k) - start.begin() - 1);
    if (b != front) {
      GatherBucket(key, b);
      front = b;
      count = start[b + 1] - start[b];
      first = 0;
    }
    uint64_t* const base = key.data();
    const size_t local = k - start[b];
    if (local == first) {
      std::iter_swap(base + local,
                     std::min_element(base + local, base + count));
    } else {
      std::nth_element(base + first, base + local, base + count);
    }
    first = local + 1;
    return last_value = FromOrderKey(base[local]);
  };
  // SortedQuantile's arithmetic on the two order statistics it reads (with
  // n >= 2 and q <= 0.75, the upper one is always the next rank). q3's
  // ranks follow q1's except at n == 2, where both read ranks 0 and 1.
  const auto position = [n](double q) {
    return q * static_cast<double>(n - 1);
  };
  const size_t lo1 = static_cast<size_t>(position(0.25));
  const size_t lo3 = static_cast<size_t>(position(0.75));
  const double q1_lo = at_rank(lo1);
  const double q1_hi = at_rank(lo1 + 1);
  const double q3_lo = lo3 == lo1 ? q1_lo : at_rank(lo3);
  const double q3_hi = lo3 == lo1 ? q1_hi : at_rank(lo3 + 1);
  const double q1 =
      q1_lo + (position(0.25) - static_cast<double>(lo1)) * (q1_hi - q1_lo);
  const double q3 =
      q3_lo + (position(0.75) - static_cast<double>(lo3)) * (q3_hi - q3_lo);

  // The largest observation inside the fence, as ComputeBoxplot's backward
  // scan of the sorted sample finds it: the largest key at or below the
  // fence's, with OrderKey(0.0) for the zero block when the fence admits 0.
  // A NaN fence admits nothing, leaving q3; no key is 0.
  const double hi_fence = q3 + whisker_factor * (q3 - q1);
  const uint64_t fence_key = std::isnan(hi_fence) ? 0 : OrderKey(hi_fence);
  uint64_t best = zeros > 0 && hi_fence >= 0.0 ? OrderKey(0.0) : 0;
  for (const uint64_t k : key) best = std::max(best, k <= fence_key ? k : 0);
  result.value = best == 0 ? q3 : FromOrderKey(best);
  return result;
}

}  // namespace homets::stats
