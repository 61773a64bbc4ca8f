#include "correlation/prepared_series.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "stats/ranks.h"
#include "stats/special_functions.h"

namespace homets::correlation {

namespace {

// Accumulation order matters throughout this file: every loop mirrors the
// historical vector-path implementation exactly (independent accumulators,
// ascending index order) so prepared results are bit-identical to it.

// Mean and centered sum of squares, each in its own ascending pass.
void MomentsOf(const std::vector<double>& v, double* mean, double* ss) {
  const size_t n = v.size();
  double m = 0.0;
  for (size_t i = 0; i < n; ++i) m += v[i];
  m /= static_cast<double>(n);
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = v[i] - m;
    s += d * d;
  }
  *mean = m;
  *ss = s;
}

// Two-sided p-value via the t transform, dof = n - 2.
double PearsonPValue(double r, size_t n) {
  const double dof = static_cast<double>(n) - 2.0;
  if (std::fabs(r) >= 1.0) return 0.0;
  const double t = r * std::sqrt(dof / (1.0 - r * r));
  return stats::StudentTTwoSidedPValue(t, dof);
}

void AddTieGroup(size_t size, TieSums* s) {
  const double t = static_cast<double>(size);
  s->pairs += t * (t - 1.0) / 2.0;
  s->triple += t * (t - 1.0) * (t - 2.0);
  s->weighted += t * (t - 1.0) * (2.0 * t + 5.0);
  s->pair_raw += t * (t - 1.0);
}

using KeyedIndex = ProfileScratch::KeyedIndex;

// Stable LSD radix sort of `scratch->items` by key, one byte per pass. A
// pass whose byte is the same in every key would keep the order, so it is
// skipped: integer byte counts leave the low mantissa bytes all zero. The
// passes alternate between `items` and `spare`; the sorted run ends in
// `items`, and both buffers keep their capacity for the next sort.
void RadixSortByKey(ProfileScratch* scratch) {
  std::vector<KeyedIndex>& items = scratch->items;
  const size_t m = items.size();
  if (m < 2) return;
  std::array<std::array<uint32_t, 256>, 8> counts{};
  for (const KeyedIndex& item : items) {
    for (size_t d = 0; d < 8; ++d) ++counts[d][(item.key >> (8 * d)) & 0xFF];
  }
  scratch->spare.resize(m);
  KeyedIndex* src = items.data();
  KeyedIndex* dst = scratch->spare.data();
  for (size_t d = 0; d < 8; ++d) {
    const size_t shift = 8 * d;
    std::array<uint32_t, 256>& next = counts[d];
    if (next[(src[0].key >> shift) & 0xFF] == m) continue;
    uint32_t offset = 0;
    for (uint32_t& slot : next) {
      const uint32_t count = slot;
      slot = offset;
      offset += count;
    }
    for (size_t i = 0; i < m; ++i) {
      const KeyedIndex item = src[i];
      dst[next[(item.key >> shift) & 0xFF]++] = item;
    }
    std::swap(src, dst);
  }
  if (src != items.data()) items.swap(scratch->spare);
}

// Pearson over NaN-free equal-length vectors given each side's moments.
Result<CorrelationTest> PearsonFromMoments(const std::vector<double>& x,
                                           const std::vector<double>& y,
                                           double mx, double sxx, double my,
                                           double syy) {
  if (sxx <= 0.0 || syy <= 0.0) {
    return Status::ComputeError("Pearson: constant input series");
  }
  const size_t n = x.size();
  double sxy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
  }
  double r = sxy / std::sqrt(sxx * syy);
  r = std::clamp(r, -1.0, 1.0);
  CorrelationTest test;
  test.coefficient = r;
  test.n = n;
  test.p_value = PearsonPValue(r, n);
  return test;
}

Result<CorrelationTest> PearsonGathered(const std::vector<double>& xc,
                                        const std::vector<double>& yc) {
  if (xc.size() < 3) {
    return Status::InvalidArgument("Pearson: need >= 3 complete pairs");
  }
  double mx, sxx, my, syy;
  MomentsOf(xc, &mx, &sxx);
  MomentsOf(yc, &my, &syy);
  return PearsonFromMoments(xc, yc, mx, sxx, my, syy);
}

Result<CorrelationTest> SpearmanGathered(const std::vector<double>& xc,
                                         const std::vector<double>& yc) {
  if (xc.size() < 3) {
    return Status::InvalidArgument("Spearman: need >= 3 complete pairs");
  }
  const std::vector<double> rx = stats::AverageRanks(xc);
  const std::vector<double> ry = stats::AverageRanks(yc);
  double mx, sxx, my, syy;
  MomentsOf(rx, &mx, &sxx);
  MomentsOf(ry, &my, &syy);
  HOMETS_ASSIGN_OR_RETURN(CorrelationTest test,
                          PearsonFromMoments(rx, ry, mx, sxx, my, syy));
  test.n = xc.size();
  return test;
}

// τ-b's numerator n_c − n_d from the pair counts and the tie sums, and τ-b
// from it and sqrt(denom_x · denom_y). KendallFromCounts and the floor's
// bound both compute through these two, so they round alike.
double TauNumerator(double n0, const TieSums& tx, const TieSums& ty,
                    double joint_ties, uint64_t discordant) {
  return n0 - tx.pairs - ty.pairs + joint_ties -
         2.0 * static_cast<double>(discordant);
}

double TauB(double numerator, double norm) {
  return std::clamp(numerator / norm, -1.0, 1.0);
}

// The walk checks the bound again after this many lead positions.
constexpr uint32_t kBoundCheckStride = 1024;

// Kendall over two profiled series of one length n >= 3. Discordant and
// joint-tie pairs are symmetric in x and y, so the pairs are walked in the
// sort order of the side with more tie groups (the lead), and the other side
// (the partner) enters only through its tie-group ids. In dominance the lead
// is the aggregate and the partner the device, whose zero minutes are id 0.
// The x and y tie sums keep their labels in the τ-b formula.
//
// The discordant pairs with a member in the partner's minimum group (id 0)
// are counted first, in one pass with no tree; the rest follow in a walk
// with a Fenwick tree. The count stops once τ-b ≤ `floor` is proven, checked
// after the first pass and every kBoundCheckStride lead positions of the
// walk: the joint ties J are at most min(tx.pairs, ty.pairs) and the
// discordant pairs D at least those counted so far, so τ-b's own expression
// with those two in place of J and D bounds it from above, as every rounded
// operation in it is monotone in each operand.
Result<CorrelationTest> KendallProfiled(const PreparedSeries& x,
                                        const PreparedSeries& y,
                                        PairWorkspace* ws, double floor) {
  const size_t n = x.size();
  const double nf = static_cast<double>(n);
  const double n0 = nf * (nf - 1.0) / 2.0;
  const TieSums& tx = x.tie_sums();
  const TieSums& ty = y.tie_sums();
  if (n0 - tx.pairs <= 0.0 || n0 - ty.pairs <= 0.0) {
    // A constant side has no τ-b, whatever the counts.
    return KendallFromCounts(n, 0, 0, tx, ty);
  }
  const double norm = std::sqrt((n0 - tx.pairs) * (n0 - ty.pairs));
  const double max_joint_ties = std::min(tx.pairs, ty.pairs);
  CorrelationTest bound;
  bound.n = n;
  bound.bounded = true;
  // The bound is at least −1, so a floor below it (the default −∞) needs
  // no check.
  const auto proven = [&](uint64_t discordant) {
    if (!(floor >= -1.0)) return false;
    bound.coefficient =
        TauB(TauNumerator(n0, tx, ty, max_joint_ties, discordant), norm);
    return bound.coefficient <= floor;
  };

  const bool by_x = x.group_offsets().size() >= y.group_offsets().size();
  const PreparedSeries& lead = by_x ? x : y;
  const PreparedSeries& partner = by_x ? y : x;
  const uint32_t* const order = lead.sort_order().data();
  const std::vector<uint32_t>& lead_offsets = lead.group_offsets();
  const size_t lead_groups = lead_offsets.size() - 1;

  // Partner group g in sort order gets id g: ids order like the values, and
  // id 0 is the minimum group. Tie groups are runs of equal values, so a
  // value equal to the minimum is in it: one sequential pass gives the
  // minimum group id 0 and the rest id 1, and groups 2 and up get their
  // own ids only if the count goes on.
  const double* const partner_values = partner.values().data();
  const std::vector<uint32_t>& partner_order = partner.sort_order();
  const double partner_min = partner_values[partner_order[0]];
  ws->ids.resize(n);
  uint32_t* const ids = ws->ids.data();
  for (size_t i = 0; i < n; ++i) {
    ids[i] = partner_values[i] == partner_min ? 0 : 1;
  }

  // One pass over the lead order counts the discordant pairs with a member
  // in the minimum group: that member lies in a later lead group than the
  // other, whose partner value is larger.
  uint64_t discordant = 0;
  uint64_t above_min = 0;  // members above the minimum in earlier lead groups
  for (size_t g = 0; g < lead_groups; ++g) {
    uint64_t above = 0;
    for (uint32_t k = lead_offsets[g]; k < lead_offsets[g + 1]; ++k) {
      above += ids[order[k]];
    }
    discordant += (lead_offsets[g + 1] - lead_offsets[g] - above) * above_min;
    above_min += above;
  }
  if (proven(discordant)) return bound;

  const std::vector<uint32_t>& partner_offsets = partner.group_offsets();
  const uint32_t groups = static_cast<uint32_t>(partner_offsets.size() - 1);
  for (uint32_t g = 2; g < groups; ++g) {
    for (uint32_t k = partner_offsets[g]; k < partner_offsets[g + 1]; ++k) {
      ids[partner_order[k]] = g;
    }
  }

  // The rest of the discordant pairs, and the joint ties, in a walk over the
  // lead order with a Fenwick tree over ids 1..groups-1, stored reversed: id
  // p sits at position groups - p, so the prefix up to position groups-1-p
  // counts the inserted ids above p. Id 0 is not queried (its pairs are
  // counted) and not inserted (it is above no id).
  ws->tree.assign(groups, 0);
  ws->tie_counts.assign(groups, 0);
  uint32_t* const tree = ws->tree.data();
  uint32_t* const tie_counts = ws->tie_counts.data();
  uint64_t joint_ties = 0;
  const auto count_above = [&](uint32_t id) {
    uint64_t above = 0;
    for (uint32_t pos = groups - 1 - id; pos > 0; pos &= pos - 1) {
      above += tree[pos];
    }
    return above;
  };
  const auto insert = [&](uint32_t id) {
    for (uint32_t pos = groups - id; pos < groups; pos += pos & (0u - pos)) {
      ++tree[pos];
    }
  };
  uint32_t next_check = kBoundCheckStride;
  for (size_t g = 0; g < lead_groups; ++g) {
    const uint32_t begin = lead_offsets[g];
    const uint32_t end = lead_offsets[g + 1];
    if (begin >= next_check) {
      if (proven(discordant)) return bound;
      next_check = begin + kBoundCheckStride;
    }
    // Every inserted pair member lies strictly below this lead group, so a
    // larger partner id is a discordant pair. A group of one has no lead
    // ties and no joint ties, so it is queried and inserted in one step.
    if (end - begin == 1) {
      const uint32_t id = ids[order[begin]];
      if (id != 0) {
        discordant += count_above(id);
        insert(id);
      }
      continue;
    }
    // A lead tie group is queried whole before any of it is inserted, so
    // pairs tied on the lead never count. Its joint ties are the pairs with
    // equal partner ids.
    for (uint32_t k = begin; k < end; ++k) {
      const uint32_t id = ids[order[k]];
      if (id != 0) discordant += count_above(id);
      joint_ties += tie_counts[id]++;
    }
    for (uint32_t k = begin; k < end; ++k) {
      const uint32_t id = ids[order[k]];
      tie_counts[id] = 0;
      if (id != 0) insert(id);
    }
  }
  return KendallFromCounts(n, discordant, joint_ties, tx, ty);
}

}  // namespace

PreparedSeries PreparedSeries::Make(std::vector<double> values,
                                    uint32_t profiles) {
  PreparedSeries p;
  p.Profile(&values, profiles);
  return p;
}

void PreparedSeries::Reserve(size_t n) {
  values_.reserve(n);
  ranks_.reserve(n);
  sort_order_.reserve(n);
  group_offsets_.reserve(n + 1);
}

void PreparedSeries::Profile(std::vector<double>* values, uint32_t profiles,
                             ProfileScratch* scratch) {
  values_.swap(*values);
  has_nan_ = false;
  profiles_ = 0;
  mean_ = 0.0;
  centered_ss_ = 0.0;
  constant_ = true;
  ranks_.clear();
  rank_mean_ = 0.0;
  rank_centered_ss_ = 0.0;
  sort_order_.clear();
  group_offsets_.clear();
  tie_sums_ = TieSums{};
  for (double v : values_) {
    if (std::isnan(v)) {
      has_nan_ = true;
      break;
    }
  }
  // Profiles only pay off on the NaN-free fast path; degenerate series take
  // the gather fallback anyway. profiles() stays 0 so it always reports what
  // was actually materialized.
  if (has_nan_ || values_.size() < 3) {
    static obs::Counter* const degenerate_fallbacks =
        obs::MetricsRegistry::Global().GetCounter(
            obs::kCorrelationDegenerateFallbacks);
    degenerate_fallbacks->Increment();
    return;
  }
  profiles_ = profiles;
  const size_t n = values_.size();

  if (profiles & kMomentProfile) {
    MomentsOf(values_, &mean_, &centered_ss_);
    constant_ = centered_ss_ <= 0.0;
  }
  if ((profiles & (kRankProfile | kSortProfile)) && n >= kRadixMinSize) {
    // The permutation, groups, ranks and tie sums of the comparison sort
    // below, in near-linear time. The zeros (either sign) are one tie group
    // already in index order, so they are placed without sorting; the other
    // values are radix sorted by key. LSD radix is stable and equal keys are
    // equal values, so the order and its runs are the stable sort's own.
    ProfileScratch local;
    if (scratch == nullptr) scratch = &local;
    size_t negatives = 0;
    size_t zeros = 0;
    for (const double v : values_) {
      negatives += v < 0.0 ? 1 : 0;
      zeros += v == 0.0 ? 1 : 0;
    }
    // Sort positions: negatives [0, negatives), then the zeros, then the
    // positives. Negative keys sort below positive ones. The permutation is
    // built in sort_order_, which a rank-only profile clears at the end.
    std::vector<uint32_t>& order = sort_order_;
    order.resize(n);
    std::vector<KeyedIndex>& items = scratch->items;
    items.resize(n - zeros);
    size_t zero_pos = negatives;
    size_t item = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const double v = values_[i];
      if (v == 0.0) {
        order[zero_pos++] = i;
      } else {
        items[item++] = {stats::OrderKey(v), i};
      }
    }
    RadixSortByKey(scratch);
    for (size_t k = 0; k < items.size(); ++k) {
      order[k < negatives ? k : k + zeros] = items[k].index;
    }

    const bool ranks = profiles & kRankProfile;
    const bool sorted = profiles & kSortProfile;
    if (ranks) ranks_.resize(n);
    const auto tie_group = [&](size_t i, size_t j) {  // sort positions [i, j)
      if (ranks) {
        const double avg =
            (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0 + 1.0;
        for (size_t k = i; k < j; ++k) ranks_[order[k]] = avg;
      }
      if (sorted) {
        group_offsets_.push_back(static_cast<uint32_t>(i));
        if (j - i >= 2) AddTieGroup(j - i, &tie_sums_);
      }
    };
    // The runs of equal keys in items [begin, end), at sort position
    // `shift` past their item position.
    const auto key_runs = [&](size_t begin, size_t end, size_t shift) {
      for (size_t i = begin; i < end;) {
        size_t j = i + 1;
        while (j < end && items[j].key == items[i].key) ++j;
        tie_group(i + shift, j + shift);
        i = j;
      }
    };
    key_runs(0, negatives, 0);
    if (zeros > 0) tie_group(negatives, negatives + zeros);
    key_runs(negatives, items.size(), zeros);
    if (ranks) MomentsOf(ranks_, &rank_mean_, &rank_centered_ss_);
    if (sorted) {
      group_offsets_.push_back(static_cast<uint32_t>(n));
    } else {
      sort_order_.clear();
    }
  } else if (profiles & (kRankProfile | kSortProfile)) {
    // One sort serves both profiles. Sorting (value, index) pairs yields the
    // stable ascending permutation, and its runs of equal values are the tie
    // groups in ascending order: exactly the groups AverageRanks finds with
    // its own sort (-0.0 and 0.0 compare equal everywhere), so the ranks
    // come out bit-identical.
    std::vector<std::pair<double, uint32_t>> keyed(n);
    for (uint32_t i = 0; i < n; ++i) keyed[i] = {values_[i], i};
    std::stable_sort(
        keyed.begin(), keyed.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    const bool ranks = profiles & kRankProfile;
    const bool sorted = profiles & kSortProfile;
    if (ranks) ranks_.resize(n);
    if (sorted) {
      sort_order_.resize(n);
      for (size_t i = 0; i < n; ++i) sort_order_[i] = keyed[i].second;
    }
    for (size_t i = 0; i < n;) {
      size_t j = i + 1;
      while (j < n && keyed[j].first == keyed[i].first) ++j;
      // Sort positions [i, j) tie.
      if (ranks) {
        const double avg =
            (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0 + 1.0;
        for (size_t k = i; k < j; ++k) ranks_[keyed[k].second] = avg;
      }
      if (sorted) {
        group_offsets_.push_back(static_cast<uint32_t>(i));
        if (j - i >= 2) AddTieGroup(j - i, &tie_sums_);
      }
      i = j;
    }
    if (ranks) MomentsOf(ranks_, &rank_mean_, &rank_centered_ss_);
    if (sorted) group_offsets_.push_back(static_cast<uint32_t>(n));
  }
}

Result<CorrelationTest> Pearson(const PreparedSeries& x,
                                const PreparedSeries& y,
                                PairWorkspace* workspace) {
  if (x.PairableWith(y) && (x.profiles() & kMomentProfile) &&
      (y.profiles() & kMomentProfile)) {
    return PearsonFromMoments(x.values(), y.values(), x.mean(),
                              x.centered_ss(), y.mean(), y.centered_ss());
  }
  PairWorkspace local;
  PairWorkspace* ws = workspace != nullptr ? workspace : &local;
  CompletePairs(x.values(), y.values(), &ws->xc, &ws->yc);
  return PearsonGathered(ws->xc, ws->yc);
}

Result<CorrelationTest> Spearman(const PreparedSeries& x,
                                 const PreparedSeries& y,
                                 PairWorkspace* workspace) {
  if (x.PairableWith(y) && (x.profiles() & kRankProfile) &&
      (y.profiles() & kRankProfile)) {
    HOMETS_ASSIGN_OR_RETURN(
        CorrelationTest test,
        PearsonFromMoments(x.ranks(), y.ranks(), x.rank_mean(),
                           x.rank_centered_ss(), y.rank_mean(),
                           y.rank_centered_ss()));
    test.n = x.size();
    return test;
  }
  PairWorkspace local;
  PairWorkspace* ws = workspace != nullptr ? workspace : &local;
  CompletePairs(x.values(), y.values(), &ws->xc, &ws->yc);
  return SpearmanGathered(ws->xc, ws->yc);
}

double KendallNullVariance(size_t n, const TieSums& tx, const TieSums& ty) {
  const double nf = static_cast<double>(n);
  const double v0 = nf * (nf - 1.0) * (2.0 * nf + 5.0);
  double var = (v0 - tx.weighted - ty.weighted) / 18.0;
  var += tx.pair_raw * ty.pair_raw / (2.0 * nf * (nf - 1.0));
  if (n > 2) {
    var += tx.triple * ty.triple / (9.0 * nf * (nf - 1.0) * (nf - 2.0));
  }
  return var;
}

Result<CorrelationTest> KendallFromCounts(size_t n, uint64_t discordant,
                                          uint64_t joint_ties,
                                          const TieSums& tx,
                                          const TieSums& ty) {
  const double nf = static_cast<double>(n);
  const double n0 = nf * (nf - 1.0) / 2.0;
  const double denom_x = n0 - tx.pairs;
  const double denom_y = n0 - ty.pairs;
  if (denom_x <= 0.0 || denom_y <= 0.0) {
    return Status::ComputeError("Kendall: constant input series");
  }
  const double concordant_minus_discordant =
      TauNumerator(n0, tx, ty, static_cast<double>(joint_ties), discordant);
  const double tau =
      TauB(concordant_minus_discordant, std::sqrt(denom_x * denom_y));

  const double var = KendallNullVariance(n, tx, ty);
  CorrelationTest test;
  test.coefficient = tau;
  test.n = n;
  if (var <= 0.0) {
    test.p_value = 1.0;
  } else {
    const double z = concordant_minus_discordant / std::sqrt(var);
    test.p_value = 2.0 * (1.0 - stats::NormalCdf(std::fabs(z)));
  }
  return test;
}

Result<CorrelationTest> Kendall(const PreparedSeries& x,
                                const PreparedSeries& y,
                                PairWorkspace* workspace, double floor) {
  PairWorkspace local;
  PairWorkspace* ws = workspace != nullptr ? workspace : &local;
  if (!(x.PairableWith(y) && (x.profiles() & kSortProfile) &&
        (y.profiles() & kSortProfile))) {
    // The complete pairs depend on both sides, so they are profiled here
    // and counted by the same kernel.
    CompletePairs(x.values(), y.values(), &ws->xc, &ws->yc);
    if (ws->xc.size() < 3) {
      return Status::InvalidArgument("Kendall: need >= 3 complete pairs");
    }
    return KendallProfiled(PreparedSeries::Make(ws->xc, kSortProfile),
                           PreparedSeries::Make(ws->yc, kSortProfile), ws,
                           floor);
  }
  return KendallProfiled(x, y, ws, floor);
}

}  // namespace homets::correlation
