#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"

// Counts the bytes this test binary allocates, for
// InactiveSpansDoNotAllocate. Compiled out under ASan/TSan, whose runtimes
// own the allocator. Only the base new and the plain and sized deletes are
// replaced: the standard makes the array and nothrow forms call them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HOMETS_TEST_COUNT_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HOMETS_TEST_COUNT_NEW 0
#endif
#endif
#ifndef HOMETS_TEST_COUNT_NEW
#define HOMETS_TEST_COUNT_NEW 1
#endif

#if HOMETS_TEST_COUNT_NEW
namespace {
std::atomic<uint64_t> g_new_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
#endif  // HOMETS_TEST_COUNT_NEW

namespace homets::obs {
namespace {

// Install/uninstall around each test body so a crashed expectation can't
// leave a dangling global session for later tests.
class SessionGuard {
 public:
  explicit SessionGuard(TraceSession* session) {
    InstallGlobalTraceSession(session);
  }
  ~SessionGuard() { InstallGlobalTraceSession(nullptr); }
};

TEST(ScopedSpanTest, NoSessionNoSinkIsANoOp) {
  InstallGlobalTraceSession(nullptr);
  StageTimer stage("orphan");  // must not crash or record anywhere
  EXPECT_EQ(GlobalTraceSession(), nullptr);
}

TEST(ScopedSpanTest, RecordsIntoInstalledSession) {
  TraceSession session;
  {
    SessionGuard guard(&session);
    StageTimer stage("unit.work");
  }
  ASSERT_EQ(session.size(), 1u);
  const TraceEvent event = session.Events()[0];
  EXPECT_EQ(event.name, "unit.work");
  EXPECT_GE(event.ts_us, 0);
  EXPECT_GE(event.dur_us, 0);
  EXPECT_EQ(event.depth, 0u);
}

TEST(ScopedSpanTest, NestedSpansCarryIncreasingDepth) {
  TraceSession session;
  {
    SessionGuard guard(&session);
    StageTimer outer("outer");
    {
      StageTimer middle("middle");
      StageTimer inner("inner");
    }
    StageTimer sibling("sibling");
  }
  ASSERT_EQ(session.size(), 4u);
  const auto events = session.Events();
  const auto depth_of = [&](const std::string& name) {
    const auto it = std::find_if(
        events.begin(), events.end(),
        [&](const TraceEvent& e) { return e.name == name; });
    EXPECT_NE(it, events.end()) << name;
    return it == events.end() ? ~0u : it->depth;
  };
  EXPECT_EQ(depth_of("outer"), 0u);
  EXPECT_EQ(depth_of("middle"), 1u);
  EXPECT_EQ(depth_of("inner"), 2u);
  EXPECT_EQ(depth_of("sibling"), 1u);  // reopened under outer only
}

TEST(ScopedSpanTest, ThreadsGetDistinctDenseIds) {
  TraceSession session;
  {
    SessionGuard guard(&session);
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([] { StageTimer stage("worker.step"); });
    }
    for (auto& t : threads) t.join();
  }
  ASSERT_EQ(session.size(), 3u);
  std::vector<uint32_t> tids;
  for (const auto& e : session.Events()) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()), tids.end())
      << "each thread must get its own trace id";
}

// An inactive stage is one relaxed load: with no TraceSession, collector or
// manifest it does not copy its name, however long it is.
TEST(ScopedSpanTest, InactiveSpansDoNotAllocate) {
#if HOMETS_TEST_COUNT_NEW
  ASSERT_EQ(GlobalTraceSession(), nullptr);
  const uint64_t before = g_new_bytes.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    StageTimer stage("similarity_engine.pairwise_past_the_sso_size");
  }
  EXPECT_EQ(g_new_bytes.load(std::memory_order_relaxed) - before, 0u);
#else
  GTEST_SKIP() << "the allocation counter is compiled out under sanitizers";
#endif
}

TEST(TraceSessionTest, ChromeJsonIsWellFormed) {
  TraceSession session;
  {
    SessionGuard guard(&session);
    StageTimer outer("outer \"quoted\"\\");
    StageTimer inner("inner");
  }
  const std::string json = session.ToChromeJson();
  // Chrome's object form: the document's first member is traceEvents.
  const auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << json;
  ASSERT_FALSE(parsed->object_items().empty()) << json;
  EXPECT_EQ(parsed->object_items().front().first, "traceEvents") << json;
  EXPECT_EQ(parsed->object_items().front().second.array_items().size(), 2u);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos)
      << "span names must be JSON-escaped: " << json;
  int braces = 0, brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceSessionTest, ConcurrentAddsAllArrive) {
  TraceSession session;
  {
    SessionGuard guard(&session);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < kPerThread; ++i) StageTimer stage("burst");
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(session.size(), 4u * 500u);
  }
}

}  // namespace
}  // namespace homets::obs
