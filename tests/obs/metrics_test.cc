#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace homets::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  // Counters must not lose increments under contention: 8 threads x 10000
  // increments each must land exactly.
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  // Prometheus `le` semantics: a value equal to a bound lands in that bound's
  // bucket; anything above the last bound lands in the overflow bucket.
  Histogram h({1.0, 10.0, 100.0});
  for (const double v : {0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 1000.0}) {
    h.Observe(v);
  }
  EXPECT_EQ(h.BucketCounts(), (std::vector<uint64_t>{2, 2, 2, 1}));
  EXPECT_EQ(h.Count(), 7u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.5 + 1.0 + 5.0 + 10.0 + 50.0 + 100.0 + 1000.0);
}

TEST(HistogramTest, SortsAndDedupsBounds) {
  Histogram h({10.0, 1.0, 10.0});
  EXPECT_EQ(h.bounds(), (std::vector<double>{1.0, 10.0}));
}

TEST(HistogramTest, ConcurrentObservationsCountExactly) {
  Histogram h({1.0, 2.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(1.5);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.BucketCounts()[1], static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.Sum(), 1.5 * kThreads * kPerThread);
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram h({1.0});
  h.Observe(0.5);
  h.Observe(2.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.BucketCounts(), (std::vector<uint64_t>{0, 0}));
}

TEST(ExponentialBucketsTest, GeometricSeries) {
  EXPECT_EQ(ExponentialBuckets(1.0, 10.0, 3),
            (std::vector<double>{1.0, 10.0, 100.0}));
}

TEST(MetricsRegistryTest, SameNameReturnsSamePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("homets.test.counter");
  Counter* b = registry.GetCounter("homets.test.counter");
  EXPECT_EQ(a, b);
  Histogram* h1 = registry.GetHistogram("homets.test.hist", {1.0, 2.0});
  Histogram* h2 = registry.GetHistogram("homets.test.hist", {99.0});
  EXPECT_EQ(h1, h2);  // first registration fixes the bounds
  EXPECT_EQ(h1->bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndIncrement) {
  // Many threads race to register the same name and increment through
  // whatever pointer they get; the total must still be exact.
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* c = registry.GetCounter("homets.test.raced");
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("homets.test.raced")->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotReflectsValues) {
  MetricsRegistry registry;
  registry.GetCounter("homets.test.count")->Increment(3);
  registry.GetHistogram("homets.test.lat", {10.0})->Observe(4.0);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("homets.test.count"), 3u);
  EXPECT_EQ(snap.histograms.at("homets.test.lat").count, 1u);
  EXPECT_EQ(snap.histograms.at("homets.test.lat").buckets,
            (std::vector<uint64_t>{1, 0}));
}

TEST(MetricsRegistryTest, ExportJsonIsWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("homets.test.count")->Increment(5);
  registry.GetHistogram("homets.test.lat", {1.0})->Observe(0.5);
  const std::string json = registry.ExportJson();
  // Structural checks: balanced braces/brackets, expected keys and values.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\"homets.test.count\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"+inf\""), std::string::npos) << json;
}

TEST(MetricsRegistryTest, MismatchedBoundsReturnTheExistingHistogram) {
  // GetHistogram is get-or-create keyed on name alone: a second caller with
  // different bounds gets the registered instance, not a new histogram that
  // would export twice under one name.
  MetricsRegistry registry;
  Histogram* first =
      registry.GetHistogram("homets.io.read_us", {1.0, 10.0});
  Histogram* second =
      registry.GetHistogram("homets.io.read_us", {5.0, 50.0, 500.0});
  EXPECT_EQ(first, second);
  EXPECT_EQ(second->bounds(), (std::vector<double>{1.0, 10.0}));
  first->Observe(3.0);
  const std::string json = registry.ExportJson();
  // Exactly one histogram under the name, with the original bounds.
  EXPECT_NE(json.find("{\"le\": 10, \"count\": 1}"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"le\": 50"), std::string::npos) << json;
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsPointers) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("homets.test.count");
  c->Increment(5);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("homets.test.count"), c);
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(HistogramPercentileTest, EmptyHistogramIsZero) {
  HistogramSnapshot hist;
  hist.bounds = {1.0, 10.0};
  hist.buckets = {0, 0, 0};
  hist.count = 0;
  EXPECT_EQ(HistogramPercentile(hist, 0.5), 0.0);
}

TEST(HistogramPercentileTest, InterpolatesWithinTheWinningBucket) {
  // 10 observations in (10, 20]: p50 lands halfway through the bucket.
  HistogramSnapshot hist;
  hist.bounds = {10.0, 20.0};
  hist.buckets = {0, 10, 0};
  hist.count = 10;
  EXPECT_DOUBLE_EQ(HistogramPercentile(hist, 0.5), 15.0);
  // The first bucket interpolates from a lower edge of 0.
  HistogramSnapshot low;
  low.bounds = {10.0, 20.0};
  low.buckets = {10, 0, 0};
  low.count = 10;
  EXPECT_DOUBLE_EQ(HistogramPercentile(low, 0.5), 5.0);
}

TEST(HistogramPercentileTest, OverflowBucketClampsToHighestFiniteBound) {
  HistogramSnapshot hist;
  hist.bounds = {1.0, 10.0};
  hist.buckets = {1, 0, 9};  // 90% of the mass beyond the last bound
  hist.count = 10;
  EXPECT_DOUBLE_EQ(HistogramPercentile(hist, 0.99), 10.0);
}

}  // namespace
}  // namespace homets::obs
