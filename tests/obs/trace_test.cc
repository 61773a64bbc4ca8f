#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

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
  ScopedSpan span("orphan");  // must not crash or record anywhere
  EXPECT_EQ(GlobalTraceSession(), nullptr);
}

TEST(ScopedSpanTest, RecordsIntoInstalledSession) {
  TraceSession session;
  {
    SessionGuard guard(&session);
    ScopedSpan span("unit.work");
  }
  ASSERT_EQ(session.size(), 1u);
  const TraceEvent event = session.Events()[0];
  EXPECT_EQ(event.name, "unit.work");
  EXPECT_EQ(event.category, "homets");
  EXPECT_GE(event.ts_us, 0);
  EXPECT_GE(event.dur_us, 0);
  EXPECT_EQ(event.depth, 0u);
}

TEST(ScopedSpanTest, NestedSpansCarryIncreasingDepth) {
  TraceSession session;
  {
    SessionGuard guard(&session);
    ScopedSpan outer("outer");
    {
      ScopedSpan middle("middle");
      ScopedSpan inner("inner");
    }
    ScopedSpan sibling("sibling");
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
      threads.emplace_back([] { ScopedSpan span("worker.step"); });
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

TEST(TraceSessionTest, ChromeJsonIsWellFormed) {
  TraceSession session;
  {
    SessionGuard guard(&session);
    ScopedSpan outer("outer \"quoted\"\\");
    ScopedSpan inner("inner");
  }
  const std::string json = session.ToChromeJson();
  EXPECT_EQ(json.find("{\"traceEvents\""), 0u) << json;
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
        for (int i = 0; i < kPerThread; ++i) ScopedSpan span("burst");
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(session.size(), 4u * 500u);
  }
}

}  // namespace
}  // namespace homets::obs
