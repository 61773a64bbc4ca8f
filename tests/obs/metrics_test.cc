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

TEST(MetricsRegistryTest, SameNameReturnsSamePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("homets.test.counter");
  Counter* b = registry.GetCounter("homets.test.counter");
  EXPECT_EQ(a, b);
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
  registry.GetCounter("homets.test.other");
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("homets.test.count"), 3u);
  EXPECT_EQ(snap.counters.at("homets.test.other"), 0u);
}

TEST(MetricsRegistryTest, ExportJsonIsWellFormed) {
  MetricsRegistry registry;
  registry.GetCounter("homets.test.count")->Increment(5);
  registry.GetCounter("homets.test.zero");
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
  EXPECT_NE(json.find("\"homets.test.zero\": 0"), std::string::npos) << json;
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

}  // namespace
}  // namespace homets::obs
