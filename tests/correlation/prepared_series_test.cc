#include "correlation/prepared_series.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/background.h"
#include "core/dominance_grid.h"
#include "simgen/fleet.h"
#include "ts/time_series.h"

namespace homets::correlation {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The rank and sort profiles as the comparison sort makes them: a stable
// sort of (value, index) pairs, then one scan over its runs of equal values.
struct ReferenceProfiles {
  std::vector<uint32_t> sort_order;
  std::vector<uint32_t> group_offsets;
  std::vector<double> ranks;
  TieSums tie_sums;
  double rank_mean = 0.0;
  double rank_centered_ss = 0.0;
};

ReferenceProfiles ReferenceProfilesOf(const std::vector<double>& values) {
  const size_t n = values.size();
  std::vector<std::pair<double, uint32_t>> keyed(n);
  for (uint32_t i = 0; i < n; ++i) keyed[i] = {values[i], i};
  std::stable_sort(
      keyed.begin(), keyed.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  ReferenceProfiles ref;
  ref.ranks.resize(n);
  for (const auto& [value, index] : keyed) ref.sort_order.push_back(index);
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && keyed[j].first == keyed[i].first) ++j;
    const double avg =
        (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0 + 1.0;
    for (size_t k = i; k < j; ++k) ref.ranks[keyed[k].second] = avg;
    ref.group_offsets.push_back(static_cast<uint32_t>(i));
    if (j - i >= 2) {
      const double t = static_cast<double>(j - i);
      ref.tie_sums.pairs += t * (t - 1.0) / 2.0;
      ref.tie_sums.triple += t * (t - 1.0) * (t - 2.0);
      ref.tie_sums.weighted += t * (t - 1.0) * (2.0 * t + 5.0);
      ref.tie_sums.pair_raw += t * (t - 1.0);
    }
    i = j;
  }
  ref.group_offsets.push_back(static_cast<uint32_t>(n));
  for (const double r : ref.ranks) ref.rank_mean += r;
  ref.rank_mean /= static_cast<double>(n);
  for (const double r : ref.ranks) {
    const double d = r - ref.rank_mean;
    ref.rank_centered_ss += d * d;
  }
  return ref;
}

// Knight's algorithm, the Kendall count the prepared kernel replaced, kept
// here as an independent reference: sort the complete pairs by (x, y), count
// the runs of equal pairs as joint ties, and count the discordant pairs as
// the exchanges a bottom-up merge sort of the y sequence makes.
Result<CorrelationTest> KnightKendall(const std::vector<double>& x,
                                      const std::vector<double>& y) {
  std::vector<double> xc, yc;
  CompletePairs(x, y, &xc, &yc);
  const size_t n = xc.size();
  if (n < 3) {
    return Status::InvalidArgument("Kendall: need >= 3 complete pairs");
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (xc[a] != xc[b]) return xc[a] < xc[b];
    return yc[a] < yc[b];
  });
  uint64_t joint_ties = 0;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && xc[order[j]] == xc[order[i]] &&
           yc[order[j]] == yc[order[i]]) {
      ++j;
    }
    joint_ties += (j - i) * (j - i - 1) / 2;
    i = j;
  }
  std::vector<double> ys(n), buffer(n);
  for (size_t i = 0; i < n; ++i) ys[i] = yc[order[i]];
  uint64_t swaps = 0;
  for (size_t width = 1; width < n; width *= 2) {
    for (size_t lo = 0; lo + width < n; lo += 2 * width) {
      const size_t mid = lo + width;
      const size_t hi = std::min(lo + 2 * width, n);
      size_t i = lo, j = mid, k = lo;
      while (i < mid && j < hi) {
        if (ys[j] < ys[i]) {
          swaps += mid - i;  // ys[j] jumps over the rest of the left run
          buffer[k++] = ys[j++];
        } else {
          buffer[k++] = ys[i++];
        }
      }
      while (i < mid) buffer[k++] = ys[i++];
      while (j < hi) buffer[k++] = ys[j++];
      std::copy(buffer.begin() + lo, buffer.begin() + hi, ys.begin() + lo);
    }
  }
  return KendallFromCounts(n, swaps, joint_ties,
                           ReferenceProfilesOf(xc).tie_sums,
                           ReferenceProfilesOf(yc).tie_sums);
}

// Golden parity check: the profiled fast path, the gather fallback (forced
// via profiles = 0) and the public vector API must agree bit-for-bit — same
// coefficient/p-value/n bits on success, same status code and message on
// failure. Kendall's fast path is also held to Knight's algorithm.
void ExpectParity(const std::vector<double>& x, const std::vector<double>& y) {
  const PreparedSeries px = PreparedSeries::Make(x);
  const PreparedSeries py = PreparedSeries::Make(y);
  const PreparedSeries lx = PreparedSeries::Make(x, 0);
  const PreparedSeries ly = PreparedSeries::Make(y, 0);
  PairWorkspace ws;

  const auto check = [](const char* name, Result<CorrelationTest> fast,
                        Result<CorrelationTest> legacy,
                        Result<CorrelationTest> vec) {
    SCOPED_TRACE(name);
    ASSERT_EQ(fast.ok(), legacy.ok());
    ASSERT_EQ(fast.ok(), vec.ok());
    if (!fast.ok()) {
      EXPECT_EQ(fast.status().code(), legacy.status().code());
      EXPECT_EQ(fast.status().message(), legacy.status().message());
      EXPECT_EQ(fast.status().message(), vec.status().message());
      return;
    }
    EXPECT_TRUE(SameBits(fast->coefficient, legacy->coefficient))
        << fast->coefficient << " vs " << legacy->coefficient;
    EXPECT_TRUE(SameBits(fast->p_value, legacy->p_value))
        << fast->p_value << " vs " << legacy->p_value;
    EXPECT_EQ(fast->n, legacy->n);
    EXPECT_TRUE(SameBits(fast->coefficient, vec->coefficient));
    EXPECT_TRUE(SameBits(fast->p_value, vec->p_value));
    EXPECT_EQ(fast->n, vec->n);
  };
  check("pearson", Pearson(px, py, &ws), Pearson(lx, ly, &ws), Pearson(x, y));
  check("spearman", Spearman(px, py, &ws), Spearman(lx, ly, &ws),
        Spearman(x, y));
  check("kendall", Kendall(px, py, &ws), Kendall(lx, ly, &ws), Kendall(x, y));
  check("kendall_knight", Kendall(px, py, &ws), KnightKendall(x, y),
        Kendall(x, y));
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
  return v;
}

TEST(PreparedSeriesTest, ProfilesSkippedForNanAndShortInput) {
  const PreparedSeries with_nan =
      PreparedSeries::Make({1.0, std::nan(""), 3.0, 4.0});
  EXPECT_TRUE(with_nan.has_nan());
  EXPECT_EQ(with_nan.profiles(), 0u);
  const PreparedSeries tiny = PreparedSeries::Make({1.0, 2.0});
  EXPECT_EQ(tiny.profiles(), 0u);
  const PreparedSeries full = PreparedSeries::Make({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(full.profiles(), static_cast<uint32_t>(kAllProfiles));
  EXPECT_FALSE(full.PairableWith(with_nan));
  EXPECT_FALSE(tiny.PairableWith(full));
  EXPECT_TRUE(full.PairableWith(full));
}

TEST(PreparedSeriesTest, ProfileContents) {
  const PreparedSeries p = PreparedSeries::Make({3.0, 1.0, 2.0, 2.0});
  EXPECT_TRUE(SameBits(p.mean(), 2.0));
  EXPECT_FALSE(p.constant());
  // Tie-averaged ranks of {3, 1, 2, 2}: {4, 1, 2.5, 2.5}.
  ASSERT_EQ(p.ranks().size(), 4u);
  EXPECT_DOUBLE_EQ(p.ranks()[0], 4.0);
  EXPECT_DOUBLE_EQ(p.ranks()[1], 1.0);
  EXPECT_DOUBLE_EQ(p.ranks()[2], 2.5);
  EXPECT_DOUBLE_EQ(p.ranks()[3], 2.5);
  // Stable ascending order: 1 < 2 (index 2 before 3) < 3.
  ASSERT_EQ(p.sort_order().size(), 4u);
  EXPECT_EQ(p.sort_order()[0], 1u);
  EXPECT_EQ(p.sort_order()[1], 2u);
  EXPECT_EQ(p.sort_order()[2], 3u);
  EXPECT_EQ(p.sort_order()[3], 0u);
  // Tie groups: {1}, {2, 2}, {3} -> offsets 0, 1, 3 and sentinel 4.
  const std::vector<uint32_t> offsets = {0, 1, 3, 4};
  EXPECT_EQ(p.group_offsets(), offsets);
  // One tie group of size 2: Σ t(t−1)/2 = 1.
  EXPECT_DOUBLE_EQ(p.tie_sums().pairs, 1.0);
}

TEST(PreparedSeriesParity, RandomSeries) {
  Rng rng(101);
  for (const size_t n : {3u, 4u, 7u, 21u, 56u, 200u}) {
    std::vector<double> x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.LogNormal(std::log(500.0), 1.0);
      y[i] = 0.5 * x[i] + rng.Normal() * 100.0;
    }
    SCOPED_TRACE(n);
    ExpectParity(x, y);
  }
}

TEST(PreparedSeriesParity, TieHeavySeries) {
  Rng rng(102);
  for (int round = 0; round < 10; ++round) {
    std::vector<double> x(40), y(40);
    for (size_t i = 0; i < 40; ++i) {
      // Coarse grids force heavy ties on both sides, including joint ties.
      x[i] = std::floor(rng.Uniform(0.0, 5.0));
      y[i] = std::floor(x[i] / 2.0 + rng.Uniform(0.0, 3.0));
    }
    SCOPED_TRACE(round);
    ExpectParity(x, y);
  }
}

TEST(PreparedSeriesParity, NanLadenSeries) {
  Rng rng(103);
  std::vector<double> x(60), y(60);
  for (size_t i = 0; i < 60; ++i) {
    x[i] = i % 5 == 0 ? std::nan("") : rng.Normal();
    y[i] = i % 7 == 0 ? std::nan("") : 0.8 * (std::isnan(x[i]) ? 0.0 : x[i]) +
                                           rng.Normal();
  }
  ExpectParity(x, y);
  // All-NaN overlap degenerates to "need >= 3 complete pairs" on every path.
  ExpectParity({std::nan(""), std::nan(""), std::nan(""), std::nan("")},
               Ramp(4));
}

TEST(PreparedSeriesParity, ConstantAndDegenerateSeries) {
  ExpectParity(std::vector<double>(30, 5.0), Ramp(30));       // constant x
  ExpectParity(Ramp(30), std::vector<double>(30, -1.0));      // constant y
  ExpectParity(std::vector<double>(10, 0.0),
               std::vector<double>(10, 0.0));                 // both constant
  ExpectParity({1.0, 2.0}, {3.0, 4.0});                       // too short
  ExpectParity({}, {});                                       // empty
  ExpectParity(Ramp(10), Ramp(7));  // unequal lengths -> overlap via gather
}

TEST(PreparedSeriesParity, SimgenFleetWindows) {
  // Real workload shapes: background-removed weekly windows at 3 h bins from
  // the synthetic fleet, compared all-pairs across two gateways.
  simgen::SimConfig config;
  config.n_gateways = 2;
  config.weeks = 2;
  config.seed = 20140317;
  simgen::FleetGenerator gen(config);
  std::vector<std::vector<double>> windows;
  for (int id = 0; id < config.n_gateways; ++id) {
    const auto active = core::ActiveAggregate(gen.Generate(id));
    auto aggregated = ts::Aggregate(active, 180, 0, ts::AggKind::kSum);
    if (!aggregated.ok()) continue;
    for (const auto& window :
         ts::SliceWindows(*aggregated, ts::kMinutesPerWeek, 0)) {
      windows.push_back(window.values());
    }
  }
  ASSERT_GE(windows.size(), 3u);
  for (size_t i = 0; i < windows.size(); ++i) {
    for (size_t j = i; j < windows.size(); ++j) {
      SCOPED_TRACE(i * 100 + j);
      ExpectParity(windows[i], windows[j]);
    }
  }
}

double ZeroShare(const std::vector<double>& v) {
  size_t zeros = 0;
  for (const double x : v) zeros += x == 0.0 ? 1 : 0;
  return static_cast<double>(zeros) / static_cast<double>(v.size());
}

// The pair FindDominantDevices hands to Definition 1 for the most zero-heavy
// device of a simgen gateway: the device's total traffic on the aggregate's
// observed week-scale grid, non-reporting minutes as 0, and the aggregate.
struct DeviceGridPair {
  std::vector<double> device;
  std::vector<double> aggregate;
};

DeviceGridPair ZeroHeavyDeviceGridPair() {
  simgen::SimConfig config;
  config.n_gateways = 2;
  config.weeks = 2;
  config.seed = 31337;
  const simgen::GatewayTrace gateway =
      simgen::FleetGenerator(config).Generate(0);
  const core::AggregateGrid grid =
      core::MakeAggregateGrid(gateway.AggregateTraffic());
  DeviceGridPair pair;
  pair.aggregate = grid.values;
  for (const auto& device : gateway.devices) {
    std::vector<double> on_grid;
    core::DeviceOnGrid(device.TotalTraffic(), grid, &on_grid);
    const double share = ZeroShare(on_grid);
    if (share < 1.0 &&
        (pair.device.empty() || share > ZeroShare(pair.device))) {
      pair.device = std::move(on_grid);
    }
  }
  return pair;
}

TEST(PreparedSeriesParity, WorkspaceReuseDoesNotLeakState) {
  // One workspace across pairs of very different sizes and tie structure
  // must give the same bits as fresh allocations each time.
  PairWorkspace shared;
  const auto expect_same_as_fresh = [&shared](const PreparedSeries& px,
                                              const PreparedSeries& py) {
    using KernelFn = Result<CorrelationTest> (*)(
        const PreparedSeries&, const PreparedSeries&, PairWorkspace*);
    for (const KernelFn kernel :
         {static_cast<KernelFn>(&Pearson), static_cast<KernelFn>(&Spearman),
          static_cast<KernelFn>(&Kendall)}) {
      const auto with_shared = (*kernel)(px, py, &shared);
      const auto with_fresh = (*kernel)(px, py, nullptr);
      ASSERT_EQ(with_shared.ok(), with_fresh.ok());
      if (with_shared.ok()) {
        EXPECT_TRUE(
            SameBits(with_shared->coefficient, with_fresh->coefficient));
        EXPECT_TRUE(SameBits(with_shared->p_value, with_fresh->p_value));
      }
    }
  };
  Rng rng(104);
  for (const size_t n : {100u, 5u, 64u, 3u, 31u}) {
    std::vector<double> x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = std::floor(rng.Uniform(0.0, 6.0));
      y[i] = rng.Normal();
    }
    SCOPED_TRACE(n);
    expect_same_as_fresh(PreparedSeries::Make(x), PreparedSeries::Make(y));
  }
  // A week-scale device pair, an n = 8 pair, then the week-scale pair again:
  // Kendall's id buffer and Fenwick tree shrink to the short pair and grow
  // back, and must hold nothing over from either.
  const DeviceGridPair week = ZeroHeavyDeviceGridPair();
  const PreparedSeries device = PreparedSeries::Make(week.device);
  const PreparedSeries aggregate = PreparedSeries::Make(week.aggregate);
  const PreparedSeries short_x =
      PreparedSeries::Make({0.0, 3.0, 0.0, 1.0, 5.0, 0.0, 2.0, 2.0});
  const PreparedSeries short_y =
      PreparedSeries::Make({4.0, 1.0, 1.0, 0.0, 9.0, 3.0, 0.0, 7.0});
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    expect_same_as_fresh(aggregate, device);
    expect_same_as_fresh(device, aggregate);
    if (round == 0) expect_same_as_fresh(short_x, short_y);
  }
}

TEST(PreparedSeriesParity, DominanceGridSeries) {
  // Week-scale device grids against their aggregate, the dominance workload:
  // the device side is mostly tied zeros, the aggregate has many distinct
  // values. Each case runs in both argument orders, so both the "x has more
  // tie groups" and the "y has more tie groups" orderings are covered.
  const DeviceGridPair pair = ZeroHeavyDeviceGridPair();
  const std::vector<double>& agg = pair.aggregate;
  const std::vector<double>& zero_heavy = pair.device;
  ASSERT_GE(agg.size(), static_cast<size_t>(ts::kMinutesPerWeek));
  ASSERT_EQ(zero_heavy.size(), agg.size());
  ASSERT_GT(ZeroShare(zero_heavy), 0.5);
  ASSERT_GT(PreparedSeries::Make(agg).group_offsets().size(),
            PreparedSeries::Make(zero_heavy).group_offsets().size());

  std::vector<double> no_zeros = zero_heavy;
  std::vector<double> mode_not_zero = zero_heavy;
  std::vector<double> signed_zeros = zero_heavy;
  size_t zero_index = 0;
  for (size_t i = 0; i < zero_heavy.size(); ++i) {
    if (zero_heavy[i] != 0.0) continue;
    no_zeros[i] = 1.0 + 1e-3 * static_cast<double>(i);
    mode_not_zero[i] = zero_index % 5 == 0 ? 0.0 : 64.0;
    if (zero_index % 3 == 0) signed_zeros[i] = -0.0;
    ++zero_index;
  }
  const std::vector<double> all_zero(agg.size(), 0.0);

  const struct {
    const char* name;
    const std::vector<double>& device;
  } cases[] = {{"zero_heavy", zero_heavy},
               {"no_zeros", no_zeros},
               {"mode_not_zero", mode_not_zero},
               {"signed_zeros", signed_zeros},
               {"all_zero", all_zero}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ExpectParity(c.device, agg);
    ExpectParity(agg, c.device);
  }
  // Two zero-heavy devices against each other: big tie groups on both sides.
  ExpectParity(zero_heavy, signed_zeros);
  ExpectParity(mode_not_zero, zero_heavy);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Make's rank and sort profiles, under every mask that asks for them, match
// the reference bit for bit, whichever sort Make picks for this length.
void ExpectProfilesMatchReference(const std::vector<double>& values) {
  ASSERT_GE(values.size(), 3u);
  const ReferenceProfiles ref = ReferenceProfilesOf(values);
  const PreparedSeries all = PreparedSeries::Make(values);
  EXPECT_EQ(all.sort_order(), ref.sort_order);
  EXPECT_EQ(all.group_offsets(), ref.group_offsets);
  EXPECT_TRUE(SameBits(all.ranks(), ref.ranks));
  EXPECT_TRUE(SameBits(all.tie_sums().pairs, ref.tie_sums.pairs));
  EXPECT_TRUE(SameBits(all.tie_sums().triple, ref.tie_sums.triple));
  EXPECT_TRUE(SameBits(all.tie_sums().weighted, ref.tie_sums.weighted));
  EXPECT_TRUE(SameBits(all.tie_sums().pair_raw, ref.tie_sums.pair_raw));
  EXPECT_TRUE(SameBits(all.rank_mean(), ref.rank_mean));
  EXPECT_TRUE(SameBits(all.rank_centered_ss(), ref.rank_centered_ss));

  const PreparedSeries ranks_only = PreparedSeries::Make(values, kRankProfile);
  EXPECT_TRUE(SameBits(ranks_only.ranks(), ref.ranks));
  EXPECT_TRUE(SameBits(ranks_only.rank_mean(), ref.rank_mean));
  EXPECT_TRUE(ranks_only.sort_order().empty());
  EXPECT_TRUE(ranks_only.group_offsets().empty());
  const PreparedSeries sort_only = PreparedSeries::Make(values, kSortProfile);
  EXPECT_EQ(sort_only.sort_order(), ref.sort_order);
  EXPECT_EQ(sort_only.group_offsets(), ref.group_offsets);
  EXPECT_TRUE(sort_only.ranks().empty());
}

// Lengths on both sides of the radix cutoff, and a week of minutes.
const size_t kProfileLengths[] = {3,
                                  8,
                                  56,
                                  PreparedSeries::kRadixMinSize - 1,
                                  PreparedSeries::kRadixMinSize,
                                  PreparedSeries::kRadixMinSize + 1,
                                  1000,
                                  static_cast<size_t>(ts::kMinutesPerWeek)};

TEST(PreparedSeriesParity, ProfilesOverSmallAlphabets) {
  // Few distinct values: big tie groups, zeros of either sign among them,
  // and alphabets with no zero, no negative, or no positive at all.
  const std::vector<std::vector<double>> alphabets = {
      {-2.0, -1.0, -0.0, 0.0, 1.0, 2.5},
      {0.0, 1.0},
      {-0.0, -3.0},
      {1.0, 2.0, 3.0},
      {-1.0, -0.5},
      {-7.25, 7.25, 1e300, -1e-300}};
  Rng rng(106);
  for (const size_t n : kProfileLengths) {
    for (size_t a = 0; a < alphabets.size(); ++a) {
      const std::vector<double>& alphabet = alphabets[a];
      std::vector<double> values(n);
      for (double& v : values) {
        v = alphabet[static_cast<size_t>(rng.UniformInt(alphabet.size()))];
      }
      SCOPED_TRACE(testing::Message() << "n " << n << " alphabet " << a);
      ExpectProfilesMatchReference(values);
    }
  }
}

TEST(PreparedSeriesParity, ProfilesOverSpecialValues) {
  // Every key boundary the radix sort has to order: both infinities, both
  // zeros, subnormals of either sign, the extremes of the normal range, and
  // values one ulp apart.
  const std::vector<double> specials = {
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      -std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      1.0,
      std::nextafter(1.0, 2.0),
      -1.0,
      std::nextafter(-1.0, -2.0)};
  Rng rng(107);
  for (const size_t n : kProfileLengths) {
    std::vector<double> values(n);
    for (double& v : values) {
      v = rng.Bernoulli(0.5)
              ? specials[static_cast<size_t>(rng.UniformInt(specials.size()))]
              : rng.Normal() * 1e3;
    }
    SCOPED_TRACE(n);
    ExpectProfilesMatchReference(values);
  }
}

TEST(PreparedSeriesParity, ProfilesOfAllZeroAndZeroFreeSeries) {
  Rng rng(108);
  for (const size_t n : kProfileLengths) {
    SCOPED_TRACE(n);
    ExpectProfilesMatchReference(std::vector<double>(n, 0.0));
    std::vector<double> signed_zeros(n);
    for (size_t i = 0; i < n; ++i) signed_zeros[i] = i % 2 == 0 ? -0.0 : 0.0;
    ExpectProfilesMatchReference(signed_zeros);
    std::vector<double> positive(n), mixed(n);
    for (size_t i = 0; i < n; ++i) {
      positive[i] = rng.LogNormal(std::log(500.0), 1.5);
      mixed[i] = rng.Normal();
    }
    ExpectProfilesMatchReference(positive);
    ExpectProfilesMatchReference(mixed);
    ExpectProfilesMatchReference(std::vector<double>(n, -4.0));
  }
}

TEST(PreparedSeriesParity, ProfilesOfZeroInflatedDeviceGrids) {
  // The dominance inputs: every device of a simgen gateway on its aggregate's
  // week-scale grid (mostly zeros), the aggregate itself, and windows of
  // them cut at the lengths around the radix cutoff.
  simgen::SimConfig config;
  config.n_gateways = 1;
  config.weeks = 2;
  config.seed = 4242;
  const simgen::GatewayTrace gateway =
      simgen::FleetGenerator(config).Generate(0);
  const core::AggregateGrid grid =
      core::MakeAggregateGrid(gateway.AggregateTraffic());
  std::vector<std::vector<double>> series = {grid.values};
  for (const auto& device : gateway.devices) {
    std::vector<double> on_grid;
    core::DeviceOnGrid(device.TotalTraffic(), grid, &on_grid);
    series.push_back(std::move(on_grid));
  }
  ASSERT_GE(series.size(), 3u);
  ASSERT_GT(ZeroShare(series[1]), 0.5);
  for (size_t s = 0; s < series.size(); ++s) {
    SCOPED_TRACE(s);
    ExpectProfilesMatchReference(series[s]);
    for (const size_t n : kProfileLengths) {
      if (n > series[s].size()) continue;
      const auto begin = series[s].begin() + (series[s].size() - n) / 2;
      ExpectProfilesMatchReference(std::vector<double>(begin, begin + n));
    }
  }
}

// Kendall's pair counts from their definition, by visiting all n(n−1)/2
// pairs: S = n_c − n_d and the pairs tied on each side.
struct PairCounts {
  int64_t concordant_minus_discordant = 0;
  int64_t tied_x = 0;
  int64_t tied_y = 0;
};

PairCounts BruteForcePairCounts(const std::vector<double>& x,
                                const std::vector<double>& y) {
  PairCounts c;
  for (size_t i = 0; i < x.size(); ++i) {
    for (size_t j = i + 1; j < x.size(); ++j) {
      const double dx = x[i] - x[j];
      const double dy = y[i] - y[j];
      if (dx == 0.0) ++c.tied_x;
      if (dy == 0.0) ++c.tied_y;
      if (dx * dy > 0.0) ++c.concordant_minus_discordant;
      if (dx * dy < 0.0) --c.concordant_minus_discordant;
    }
  }
  return c;
}

double BruteForceKendallTau(const std::vector<double>& x,
                            const std::vector<double>& y) {
  const PairCounts c = BruteForcePairCounts(x, y);
  const double n = static_cast<double>(x.size());
  const double n0 = n * (n - 1.0) / 2.0;
  return static_cast<double>(c.concordant_minus_discordant) /
         std::sqrt((n0 - static_cast<double>(c.tied_x)) *
                   (n0 - static_cast<double>(c.tied_y)));
}

TEST(PreparedSeriesKernels, KendallMatchesBruteForcePairCount) {
  // Small samples with ties on both sides, a dominant value (a device's zero
  // minutes) on one side or both, and signed zeros.
  Rng rng(105);
  for (int round = 0; round < 400; ++round) {
    const size_t n = 3 + static_cast<size_t>(round) % 38;
    const double x_mode_share = (round % 4) * 0.25;
    const double y_mode_share = ((round / 4) % 4) * 0.25;
    std::vector<double> x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Bernoulli(x_mode_share) ? 0.0
                                         : std::floor(rng.Uniform(-3.0, 4.0));
      y[i] = rng.Bernoulli(y_mode_share) ? 2.0
                                         : std::floor(rng.Uniform(0.0, 9.0));
      if (x[i] == 0.0 && rng.Bernoulli(0.5)) x[i] = -0.0;
    }
    const auto prepared =
        Kendall(PreparedSeries::Make(x), PreparedSeries::Make(y));
    const auto swapped =
        Kendall(PreparedSeries::Make(y), PreparedSeries::Make(x));
    SCOPED_TRACE(round);
    ASSERT_EQ(prepared.ok(), swapped.ok());
    if (!prepared.ok()) {
      // Only a constant side makes τ-b undefined.
      EXPECT_TRUE(PreparedSeries::Make(x).group_offsets().size() == 2 ||
                  PreparedSeries::Make(y).group_offsets().size() == 2);
      continue;
    }
    const double expected = BruteForceKendallTau(x, y);
    EXPECT_DOUBLE_EQ(prepared->coefficient, expected);
    EXPECT_DOUBLE_EQ(swapped->coefficient, expected);
    EXPECT_EQ(prepared->n, n);
  }
}

// The prepared τ-b equals the O(n²) definition in both argument orders.
void ExpectKendallMatchesBruteForce(const std::vector<double>& x,
                                    const std::vector<double>& y) {
  const double expected = BruteForceKendallTau(x, y);
  const PreparedSeries px = PreparedSeries::Make(x);
  const PreparedSeries py = PreparedSeries::Make(y);
  const auto xy = Kendall(px, py);
  const auto yx = Kendall(py, px);
  ASSERT_TRUE(xy.ok()) << xy.status().message();
  ASSERT_TRUE(yx.ok()) << yx.status().message();
  EXPECT_DOUBLE_EQ(xy->coefficient, expected);
  EXPECT_DOUBLE_EQ(yx->coefficient, expected);
  EXPECT_EQ(xy->n, x.size());
}

size_t TieGroups(const std::vector<double>& v) {
  return PreparedSeries::Make(v).group_offsets().size() - 1;
}

TEST(PreparedSeriesKernels, KendallAtDefinitionEdges) {
  Rng rng(109);
  const size_t n = 200;
  std::vector<double> noise(n), negative(n), positive(n), one_big_group(n),
      small_alphabet(n), correlated(n);
  for (size_t i = 0; i < n; ++i) {
    noise[i] = rng.Normal();
    const double level = std::floor(rng.Uniform(0.0, 6.0));
    negative[i] = -1.0 - level;  // smallest group -6, no zero
    positive[i] = 1.0 + level;   // smallest group 1, no zero
    one_big_group[i] = rng.Bernoulli(0.9) ? 7.0 : rng.Normal();
    small_alphabet[i] = std::floor(rng.Uniform(0.0, 4.0));
    correlated[i] = 0.3 * noise[i] + rng.Normal();
  }
  {
    SCOPED_TRACE("partner minimum not zero");
    ASSERT_GT(TieGroups(noise), TieGroups(negative));
    ExpectKendallMatchesBruteForce(noise, negative);
    ExpectKendallMatchesBruteForce(noise, positive);
    ExpectKendallMatchesBruteForce(negative, positive);
  }
  {
    SCOPED_TRACE("lead with one tie group holding most of n");
    ASSERT_GT(TieGroups(one_big_group), TieGroups(small_alphabet));
    ExpectKendallMatchesBruteForce(one_big_group, small_alphabet);
    ExpectKendallMatchesBruteForce(one_big_group, negative);
  }
  {
    SCOPED_TRACE("no ties on either side");
    ASSERT_EQ(TieGroups(noise), n);
    ASSERT_EQ(TieGroups(correlated), n);
    ExpectKendallMatchesBruteForce(noise, correlated);
  }
  {
    SCOPED_TRACE("n = 3");
    ExpectKendallMatchesBruteForce({1.0, 2.0, 3.0}, {3.0, 1.0, 2.0});
    ExpectKendallMatchesBruteForce({0.0, 0.0, 1.0}, {2.0, 1.0, 1.0});
    ExpectKendallMatchesBruteForce({-1.0, 5.0, 2.0}, {0.0, 0.0, 4.0});
    ExpectKendallMatchesBruteForce({-2.0, -2.0, -1.0}, {-5.0, -4.0, -4.0});
  }
  for (const size_t m : {1000u, 1500u, 2000u}) {
    SCOPED_TRACE(testing::Message() << "zero-inflated device, n " << m);
    std::vector<double> device(m), other(m), aggregate(m);
    for (size_t i = 0; i < m; ++i) {
      device[i] = rng.Bernoulli(0.65)
                      ? 0.0
                      : std::floor(rng.LogNormal(std::log(2000.0), 1.5));
      other[i] = rng.Bernoulli(0.8)
                     ? 0.0
                     : std::floor(rng.LogNormal(std::log(300.0), 1.0));
      aggregate[i] = device[i] + other[i] +
                     (rng.Bernoulli(0.3)
                          ? 0.0
                          : std::floor(rng.LogNormal(std::log(50.0), 1.0)));
    }
    ExpectKendallMatchesBruteForce(device, aggregate);
    ExpectKendallMatchesBruteForce(other, aggregate);
    ExpectKendallMatchesBruteForce(device, other);
  }
}

TEST(PreparedSeriesKernels, KendallErrorsAtEdges) {
  const std::vector<double> constant(5, 3.0);
  const std::vector<double> nan = {std::nan("")};
  const struct {
    std::vector<double> x, y;
    StatusCode code;
    const char* message;
  } cases[] = {
      {constant, Ramp(5), StatusCode::kComputeError,
       "Kendall: constant input series"},
      {Ramp(5), constant, StatusCode::kComputeError,
       "Kendall: constant input series"},
      // Constant once the NaN pair is dropped: the gather path.
      {{1.0, nan[0], 1.0, 1.0}, Ramp(4), StatusCode::kComputeError,
       "Kendall: constant input series"},
      {{1.0, 2.0}, {3.0, 4.0}, StatusCode::kInvalidArgument,
       "Kendall: need >= 3 complete pairs"},
      {{1.0, nan[0], 2.0, nan[0]}, Ramp(4), StatusCode::kInvalidArgument,
       "Kendall: need >= 3 complete pairs"},
      {{}, {}, StatusCode::kInvalidArgument,
       "Kendall: need >= 3 complete pairs"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.message);
    for (const auto& result :
         {Kendall(PreparedSeries::Make(c.x), PreparedSeries::Make(c.y)),
          Kendall(PreparedSeries::Make(c.y), PreparedSeries::Make(c.x)),
          Kendall(c.x, c.y)}) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), c.code);
      EXPECT_EQ(result.status().message(), c.message);
    }
  }
}

TEST(PreparedSeriesKernels, KendallNullVarianceMatchesPermutations) {
  // Under the null every arrangement of y against a fixed x is equally
  // likely. Each distinct arrangement of y's values stands for the same
  // number of index permutations, so enumerating the distinct ones gives
  // the exact distribution of S = n_c − n_d: mean 0, and a variance the
  // tie-adjusted formula must match.
  const struct {
    std::vector<double> x, y;
  } cases[] = {
      {{1.0, 2.0, 3.0}, {0.0, 0.0, 1.0}},
      {{0.0, 0.0, 1.0, 2.0}, {5.0, 5.0, 5.0, 6.0}},
      {{1.0, 1.0, 2.0, 2.0, 3.0}, {0.0, 1.0, 1.0, 2.0, 2.0}},
      {{0.0, 0.0, 0.0, 1.0, 2.0, 3.0}, {4.0, 4.0, 5.0, 5.0, 6.0, 7.0}},
      {{0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0},
       {1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0}},
      {{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0},
       {0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0}},
  };
  for (const auto& c : cases) {
    const size_t n = c.x.size();
    SCOPED_TRACE(n);
    const PreparedSeries px = PreparedSeries::Make(c.x);
    std::vector<double> y = c.y;
    std::sort(y.begin(), y.end());
    int64_t sum = 0;
    int64_t sum_of_squares = 0;
    int64_t arrangements = 0;
    int tau_mismatches = 0;
    do {
      const int64_t s =
          BruteForcePairCounts(c.x, y).concordant_minus_discordant;
      sum += s;
      sum_of_squares += s * s;
      ++arrangements;
      const auto tau = Kendall(px, PreparedSeries::Make(y));
      if (!tau.ok() || tau->coefficient != BruteForceKendallTau(c.x, y)) {
        ++tau_mismatches;
      }
    } while (std::next_permutation(y.begin(), y.end()));
    EXPECT_EQ(sum, 0);
    EXPECT_EQ(tau_mismatches, 0);
    const double variance = static_cast<double>(sum_of_squares) /
                            static_cast<double>(arrangements);
    const double expected = KendallNullVariance(
        n, px.tie_sums(), PreparedSeries::Make(y).tie_sums());
    EXPECT_NEAR(variance, expected, 1e-12 * expected);
  }
}

TEST(PreparedSeriesKernels, ErrorMessagesMatchLegacy) {
  const PreparedSeries constant = PreparedSeries::Make({2.0, 2.0, 2.0, 2.0});
  const PreparedSeries ramp = PreparedSeries::Make(Ramp(4));
  const PreparedSeries tiny = PreparedSeries::Make({1.0, 2.0});

  EXPECT_EQ(Pearson(constant, ramp).status().message(),
            "Pearson: constant input series");
  EXPECT_EQ(Pearson(tiny, tiny).status().message(),
            "Pearson: need >= 3 complete pairs");
  EXPECT_EQ(Spearman(tiny, tiny).status().message(),
            "Spearman: need >= 3 complete pairs");
  EXPECT_EQ(Kendall(constant, ramp).status().message(),
            "Kendall: constant input series");
  EXPECT_EQ(Kendall(tiny, tiny).status().message(),
            "Kendall: need >= 3 complete pairs");
}

}  // namespace
}  // namespace homets::correlation
