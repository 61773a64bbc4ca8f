#include "core/motif.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "core/similarity.h"

namespace homets::core {
namespace {

// Windows drawn from k planted shape families plus noise-only windows.
struct PlantedWindows {
  std::vector<ts::TimeSeries> windows;
  std::vector<int> family;  // −1 for noise windows
};

PlantedWindows MakePlanted(size_t families, size_t per_family, size_t noise,
                           size_t length, double jitter, uint64_t seed) {
  Rng rng(seed);
  PlantedWindows out;
  std::vector<std::vector<double>> shapes(families,
                                          std::vector<double>(length));
  for (size_t f = 0; f < families; ++f) {
    // Mutually (near-)orthogonal harmonics so families do not correlate and
    // the merge phase cannot collapse them.
    const double harmonic = static_cast<double>(f / 2 + 1);
    const double phase = (f % 2 == 0) ? 0.0 : M_PI / 2.0;
    for (size_t i = 0; i < length; ++i) {
      shapes[f][i] = 200.0 + 150.0 * std::sin(2.0 * M_PI * harmonic *
                                                  static_cast<double>(i) /
                                                  static_cast<double>(length) +
                                              phase);
    }
  }
  int64_t start = 0;
  for (size_t f = 0; f < families; ++f) {
    for (size_t w = 0; w < per_family; ++w) {
      std::vector<double> v = shapes[f];
      for (auto& x : v) x += jitter * rng.Normal();
      out.windows.emplace_back(start, 60, std::move(v));
      out.family.push_back(static_cast<int>(f));
      start += ts::kMinutesPerDay;
    }
  }
  for (size_t w = 0; w < noise; ++w) {
    std::vector<double> v(length);
    for (auto& x : v) x = rng.Uniform(0.0, 1000.0);
    out.windows.emplace_back(start, 60, std::move(v));
    out.family.push_back(-1);
    start += ts::kMinutesPerDay;
  }
  return out;
}

TEST(MotifDiscoveryTest, RecoversPlantedFamilies) {
  const auto planted = MakePlanted(2, 6, 4, 24, 3.0, 1);
  MotifDiscovery miner;
  const auto motifs = miner.Discover(planted.windows).value();
  ASSERT_GE(motifs.size(), 2u);
  // The two largest motifs must be family-pure and complete.
  for (size_t m = 0; m < 2; ++m) {
    EXPECT_EQ(motifs[m].support(), 6u);
    const int family = planted.family[motifs[m].members[0]];
    ASSERT_NE(family, -1);
    for (size_t member : motifs[m].members) {
      EXPECT_EQ(planted.family[member], family);
    }
  }
}

TEST(MotifDiscoveryTest, NoiseWindowsExcluded) {
  const auto planted = MakePlanted(1, 5, 6, 24, 2.0, 2);
  MotifDiscovery miner;
  const auto motifs = miner.Discover(planted.windows).value();
  for (const auto& motif : motifs) {
    for (size_t member : motif.members) {
      EXPECT_NE(planted.family[member], -1)
          << "noise window " << member << " joined a motif";
    }
  }
}

TEST(MotifDiscoveryTest, SupportSortedDescending) {
  const auto planted = MakePlanted(3, 4, 2, 24, 2.0, 3);
  const auto motifs = MotifDiscovery().Discover(planted.windows).value();
  for (size_t i = 1; i < motifs.size(); ++i) {
    EXPECT_GE(motifs[i - 1].support(), motifs[i].support());
  }
}

TEST(MotifDiscoveryTest, EqualSupportTieBreaksOnFirstMemberIndex) {
  // Three planted families of identical size -> three equal-support motifs.
  // The reported order must be deterministic: descending support, ties
  // broken by the earliest member index.
  const auto planted = MakePlanted(3, 4, 0, 24, 1.0, 17);
  const auto motifs = MotifDiscovery().Discover(planted.windows).value();
  ASSERT_GE(motifs.size(), 2u);
  for (size_t i = 1; i < motifs.size(); ++i) {
    const auto& prev = motifs[i - 1];
    const auto& cur = motifs[i];
    if (prev.support() == cur.support()) {
      EXPECT_LT(prev.members.front(), cur.members.front());
    } else {
      EXPECT_GT(prev.support(), cur.support());
    }
  }
  // Repeated discovery over the same input returns the same order.
  const auto again = MotifDiscovery().Discover(planted.windows).value();
  ASSERT_EQ(again.size(), motifs.size());
  for (size_t i = 0; i < motifs.size(); ++i) {
    EXPECT_EQ(again[i].members, motifs[i].members);
  }
}

TEST(MotifDiscoveryTest, MinSupportFiltersSingletons) {
  const auto planted = MakePlanted(1, 3, 5, 24, 2.0, 4);
  const auto motifs = MotifDiscovery().Discover(planted.windows).value();
  for (const auto& motif : motifs) EXPECT_GE(motif.support(), 2u);
}

TEST(MotifDiscoveryTest, GroupSimilarityEnforced) {
  // Verify Definition 5's group property on discovered motifs directly.
  const auto planted = MakePlanted(2, 5, 3, 24, 4.0, 5);
  MotifOptions options;
  const auto motifs = MotifDiscovery(options).Discover(planted.windows).value();
  for (const auto& motif : motifs) {
    for (size_t i = 0; i < motif.members.size(); ++i) {
      for (size_t j = i + 1; j < motif.members.size(); ++j) {
        const double cor =
            CorrelationSimilarity(
                planted.windows[motif.members[i]].values(),
                planted.windows[motif.members[j]].values())
                .value;
        // Members were admitted under kMotifGroupFactor·phi, and the merge
        // phase under kMotifMergeThreshold; the weaker bound must hold for
        // all pairs.
        EXPECT_GE(cor, std::min(kMotifGroupFactor * options.phi,
                                kMotifMergeThreshold) -
                           1e-9);
      }
    }
  }
}

TEST(MotifDiscoveryTest, MergePhaseCombinesOverlappingFamilies) {
  // One family with tiny jitter split across two batches must end as a
  // single motif, not two.
  const auto a = MakePlanted(1, 4, 0, 24, 1.0, 6);
  const auto b = MakePlanted(1, 4, 0, 24, 1.0, 6);  // same seed → same shape
  std::vector<ts::TimeSeries> windows = a.windows;
  windows.insert(windows.end(), b.windows.begin(), b.windows.end());
  const auto motifs = MotifDiscovery().Discover(windows).value();
  ASSERT_FALSE(motifs.empty());
  EXPECT_EQ(motifs[0].support(), 8u);
}

TEST(MotifDiscoveryTest, AllZeroWindowsFormNoMotifs) {
  // Inactive (background-removed) windows must not correlate.
  std::vector<ts::TimeSeries> windows;
  for (int w = 0; w < 5; ++w) {
    windows.emplace_back(w * ts::kMinutesPerDay, 60,
                         std::vector<double>(24, 0.0));
  }
  const auto motifs = MotifDiscovery().Discover(windows).value();
  EXPECT_TRUE(motifs.empty());
}

TEST(MotifDiscoveryTest, InvalidInputs) {
  MotifDiscovery miner;
  EXPECT_FALSE(miner.Discover({}).ok());
  std::vector<ts::TimeSeries> uneven;
  uneven.emplace_back(0, 60, std::vector<double>(24, 1.0));
  uneven.emplace_back(0, 60, std::vector<double>(12, 1.0));
  EXPECT_FALSE(miner.Discover(uneven).ok());
  MotifOptions bad;
  bad.phi = 1.5;
  EXPECT_FALSE(MotifDiscovery(bad)
                   .Discover(MakePlanted(1, 3, 0, 24, 1.0, 7).windows)
                   .ok());
}

TEST(MotifShapeTest, ConsensusMatchesFamilyShape) {
  const auto planted = MakePlanted(1, 6, 0, 24, 2.0, 8);
  const auto motifs = MotifDiscovery().Discover(planted.windows).value();
  ASSERT_FALSE(motifs.empty());
  const auto shape = MotifShape(planted.windows, motifs[0]).value();
  ASSERT_EQ(shape.size(), 24u);
  // The consensus correlates strongly with a z-normalized member.
  const auto member = ts::ZNormalize(planted.windows[motifs[0].members[0]]);
  const auto sim = CorrelationSimilarity(shape, member.values());
  EXPECT_GT(sim.value, 0.9);
}

TEST(MotifShapeTest, EmptyMotifErrors) {
  const auto planted = MakePlanted(1, 3, 0, 24, 1.0, 9);
  EXPECT_FALSE(MotifShape(planted.windows, Motif{}).ok());
}

TEST(SupportHistogramTest, CountsBySupport) {
  std::vector<Motif> motifs(3);
  motifs[0].members = {0, 1, 2};
  motifs[1].members = {3, 4};
  motifs[2].members = {5, 6};
  const auto hist = SupportHistogram(motifs);
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0].first, 2u);
  EXPECT_EQ(hist[0].second, 2u);
  EXPECT_EQ(hist[1].first, 3u);
  EXPECT_EQ(hist[1].second, 1u);
}

TEST(MotifsPerGatewayTest, CountsDistinctMotifs) {
  std::vector<Motif> motifs(2);
  motifs[0].members = {0, 1};
  motifs[1].members = {2, 3};
  // Gateway 7 contributes to both motifs, gateway 8 to one.
  std::vector<WindowProvenance> provenance(4);
  provenance[0] = {7, 0};
  provenance[1] = {8, 0};
  provenance[2] = {7, ts::kMinutesPerDay};
  provenance[3] = {7, 2 * ts::kMinutesPerDay};
  const auto counts = MotifsPerGateway(motifs, provenance);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].first, 7);
  EXPECT_EQ(counts[0].second, 2u);
  EXPECT_EQ(counts[1].first, 8);
  EXPECT_EQ(counts[1].second, 1u);
}

TEST(WithinGatewayFractionTest, RepeatedGatewaysCounted) {
  Motif motif;
  motif.members = {0, 1, 2, 3};
  std::vector<WindowProvenance> provenance(4);
  provenance[0] = {1, 0};
  provenance[1] = {1, 100};
  provenance[2] = {2, 0};
  provenance[3] = {3, 0};
  // Gateway 1 contributes 2 of 4 members.
  EXPECT_DOUBLE_EQ(WithinGatewayFraction(motif, provenance), 0.5);
}

TEST(WithinGatewayFractionTest, AllDistinctGatewaysIsZero) {
  Motif motif;
  motif.members = {0, 1};
  std::vector<WindowProvenance> provenance{{1, 0}, {2, 0}};
  EXPECT_DOUBLE_EQ(WithinGatewayFraction(motif, provenance), 0.0);
  EXPECT_DOUBLE_EQ(WithinGatewayFraction(Motif{}, provenance), 0.0);
}

}  // namespace
}  // namespace homets::core
