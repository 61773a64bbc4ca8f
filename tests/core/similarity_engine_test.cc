#include "core/similarity_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/similarity.h"
#include "obs/trace.h"

namespace homets::core {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<std::vector<double>> RandomWindows(size_t count, size_t bins,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> windows(count);
  for (auto& w : windows) {
    w.resize(bins);
    for (auto& v : w) v = rng.LogNormal(std::log(500.0), 1.0);
  }
  return windows;
}

TEST(SimilarityMatrixTest, CondensedIndexRoundTrips) {
  for (const size_t n : {2u, 3u, 7u, 40u}) {
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j, ++k) {
        EXPECT_EQ(SimilarityMatrix::CondensedIndex(n, i, j), k);
        EXPECT_EQ(SimilarityMatrix::CondensedIndex(n, j, i), k);  // symmetric
        const auto [pi, pj] = SimilarityMatrix::PairAt(n, k);
        EXPECT_EQ(pi, i);
        EXPECT_EQ(pj, j);
      }
    }
    EXPECT_EQ(SimilarityMatrix(n).pair_count(), n * (n - 1) / 2);
  }
}

TEST(SimilarityEngineTest, MatchesLegacyVectorPathBitwise) {
  const auto windows = RandomWindows(24, 56, 7);
  const SimilarityEngine engine;
  const SimilarityMatrix matrix =
      engine.Pairwise(SimilarityEngine::PrepareVectors(windows));
  for (size_t i = 0; i < windows.size(); ++i) {
    for (size_t j = i + 1; j < windows.size(); ++j) {
      const SimilarityResult legacy =
          CorrelationSimilarity(windows[i], windows[j]);
      const SimilarityResult& fast = matrix.At(i, j);
      EXPECT_TRUE(SameBits(fast.value, legacy.value));
      EXPECT_EQ(fast.source, legacy.source);
      EXPECT_EQ(fast.significant, legacy.significant);
      EXPECT_EQ(fast.n, legacy.n);
    }
  }
}

TEST(SimilarityEngineTest, DeterministicAcrossThreadCounts) {
  // 48 windows -> 1128 pairs, above the engine's inline cutoff (256), so
  // the pool engages.
  const auto windows = RandomWindows(48, 56, 8);
  const auto prepared = SimilarityEngine::PrepareVectors(windows);
  std::vector<SimilarityResult> reference;
  for (const int threads : {1, 4, ResolveThreadCount(0)}) {
    SimilarityEngineOptions options;
    options.threads = threads;
    const SimilarityMatrix matrix = SimilarityEngine(options).Pairwise(prepared);
    if (reference.empty()) {
      reference = matrix.cells();
      continue;
    }
    ASSERT_EQ(matrix.cells().size(), reference.size());
    for (size_t k = 0; k < reference.size(); ++k) {
      EXPECT_TRUE(SameBits(matrix.cells()[k].value, reference[k].value))
          << "pair " << k << " at " << threads << " threads";
      EXPECT_EQ(matrix.cells()[k].source, reference[k].source);
    }
  }
}

TEST(SimilarityEngineTest, HandlesDegenerateWindows) {
  // Constant, NaN-laden and short windows must flow through the engine the
  // same way the legacy path treats them: value 0, not errors or crashes.
  std::vector<std::vector<double>> windows = {
      std::vector<double>(10, 3.0),                    // constant
      {1.0, std::nan(""), 2.0, 4.0, 1.0, 0.5, 2.0, 3.0, 1.0, 2.0},  // NaN
      {1.0, 2.0},                                      // too short
  };
  for (auto& w : RandomWindows(3, 10, 9)) windows.push_back(std::move(w));
  const SimilarityEngine engine;
  const SimilarityMatrix matrix =
      engine.Pairwise(SimilarityEngine::PrepareVectors(windows));
  for (size_t i = 0; i < windows.size(); ++i) {
    for (size_t j = i + 1; j < windows.size(); ++j) {
      const SimilarityResult legacy =
          CorrelationSimilarity(windows[i], windows[j]);
      EXPECT_TRUE(SameBits(matrix.At(i, j).value, legacy.value));
    }
  }
}

TEST(SimilarityEngineTest, PairwiseSelectedMatchesFullMatrix) {
  const auto windows = RandomWindows(12, 21, 10);
  const auto prepared = SimilarityEngine::PrepareVectors(windows);
  const SimilarityEngine engine;
  const SimilarityMatrix full = engine.Pairwise(prepared);
  // An arbitrary subset, out of row-major order.
  const std::vector<std::pair<uint32_t, uint32_t>> pairs = {
      {3, 9}, {0, 1}, {5, 6}, {0, 11}, {2, 7}};
  const std::vector<SimilarityResult> selected =
      engine.PairwiseSelected(prepared, pairs);
  ASSERT_EQ(selected.size(), pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    EXPECT_TRUE(SameBits(selected[k].value,
                         full.At(pairs[k].first, pairs[k].second).value));
  }
}

TEST(SimilarityEngineTest, CondensedDistancesMatchCorrelationDistance) {
  const auto windows = RandomWindows(10, 56, 11);
  const SimilarityEngine engine;
  const SimilarityMatrix matrix =
      engine.Pairwise(SimilarityEngine::PrepareVectors(windows));
  const std::vector<double> distances = matrix.CondensedDistances();
  ASSERT_EQ(distances.size(), matrix.pair_count());
  size_t k = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    for (size_t j = i + 1; j < windows.size(); ++j, ++k) {
      EXPECT_TRUE(SameBits(distances[k],
                           CorrelationDistance(windows[i], windows[j])));
    }
  }
  EXPECT_DOUBLE_EQ(matrix.Value(3, 3), 1.0);  // diagonal convention
}

TEST(SimilarityEngineTest, RecordsPhaseSpans) {
  obs::TraceSession session;
  obs::InstallGlobalTraceSession(&session);
  const SimilarityEngine engine;

  std::vector<ts::TimeSeries> series;
  for (size_t w = 0; w < 8; ++w) {
    std::vector<double> values(21);
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<double>((w * 7 + i * 3) % 13);
    }
    series.emplace_back(0, 180, std::move(values));
  }
  const auto prepared = engine.Prepare(series);
  engine.Pairwise(prepared);
  obs::InstallGlobalTraceSession(nullptr);
  std::vector<std::string> names;
  for (const auto& event : session.Events()) names.push_back(event.name);
  EXPECT_EQ(names, (std::vector<std::string>{"similarity_engine.prepare",
                                             "similarity_engine.pairwise"}));
}

}  // namespace
}  // namespace homets::core
