#include "obs/log.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/trace.h"

namespace homets::obs {
namespace {

std::string TempPath(const std::string& stem) {
  return testing::TempDir() + "/" + stem;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

uint64_t CountLines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  uint64_t lines = 0;
  while (std::getline(in, line)) ++lines;
  return lines;
}

// --- level names ----------------------------------------------------------

TEST(LogLevelTest, NamesRoundTripThroughParse) {
  for (const LogLevel level :
       {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn, LogLevel::kError,
        LogLevel::kOff}) {
    LogLevel parsed = LogLevel::kDebug;
    ASSERT_TRUE(ParseLogLevel(LogLevelName(level), &parsed))
        << LogLevelName(level);
    EXPECT_EQ(parsed, level);
  }
  LogLevel parsed = LogLevel::kError;
  EXPECT_FALSE(ParseLogLevel("verbose", &parsed));
  EXPECT_EQ(parsed, LogLevel::kError);  // untouched on failure
}

// --- token bucket ---------------------------------------------------------

// The limiter is a pure state machine over the timestamps it is shown:
// identical call sequences must give identical verdicts.
TEST(TokenBucketTest, DeterministicOverIdenticalSequences) {
  const std::vector<int64_t> times = {0,       1000,    2000,   3000,
                                      500000,  600000,  700000, 1500000,
                                      1500001, 3000000, 3000002};
  std::vector<bool> first;
  {
    TokenBucket bucket(3.0, 1.0);
    for (const int64_t t : times) first.push_back(bucket.Allow(t));
  }
  std::vector<bool> second;
  {
    TokenBucket bucket(3.0, 1.0);
    for (const int64_t t : times) second.push_back(bucket.Allow(t));
  }
  EXPECT_EQ(first, second);
}

TEST(TokenBucketTest, BurstThenRefill) {
  TokenBucket bucket(2.0, 1.0);  // burst of 2, then 1 token/sec
  EXPECT_TRUE(bucket.Allow(0));
  EXPECT_TRUE(bucket.Allow(0));
  EXPECT_FALSE(bucket.Allow(0));        // burst spent
  EXPECT_FALSE(bucket.Allow(500000));   // +0.5 token: still short
  EXPECT_TRUE(bucket.Allow(1000000));   // +0.5 more: one full token
  EXPECT_FALSE(bucket.Allow(1000001));  // spent again
}

TEST(TokenBucketTest, RefillCapsAtCapacity) {
  TokenBucket bucket(2.0, 1.0);
  EXPECT_TRUE(bucket.Allow(0));
  // A decade of idle time must not bank more than `capacity` tokens.
  EXPECT_TRUE(bucket.Allow(10'000'000'000));
  EXPECT_TRUE(bucket.Allow(10'000'000'000));
  EXPECT_FALSE(bucket.Allow(10'000'000'000));
}

// --- record formatting ----------------------------------------------------

LogRecord SampleRecord() {
  LogRecord record;
  record.ts_us = 1234567;
  record.level = LogLevel::kWarn;
  record.component = "io.csv";
  record.message = "rows quarantined";
  record.span_id = 42;
  record.tid = 7;
  record.fields.push_back(LogField::Uint("rows", 3));
  record.fields.push_back(LogField::Double("ratio", 0.25));
  record.fields.push_back(LogField::Bool("repaired", true));
  record.fields.push_back(LogField::Str("path", "a \"b\"\n.csv"));
  record.fields.push_back(LogField::Int("delta", -2));
  return record;
}

// The JSONL line must parse with the project's own JSON parser and hand
// back every header key and typed field intact.
TEST(LogFormatTest, JsonLineRoundTripsThroughCommonJson) {
  const std::string line = FormatJsonLine(SampleRecord());
  const auto doc = ParseJson(line);
  ASSERT_TRUE(doc.ok()) << line;
  EXPECT_EQ(doc->NumberOr("ts_us", -1), 1234567);
  EXPECT_EQ(doc->StringOr("level", ""), "warn");
  EXPECT_EQ(doc->StringOr("component", ""), "io.csv");
  EXPECT_EQ(doc->StringOr("msg", ""), "rows quarantined");
  EXPECT_EQ(doc->NumberOr("span", -1), 42);
  EXPECT_EQ(doc->NumberOr("tid", -1), 7);
  EXPECT_EQ(doc->NumberOr("rows", -1), 3);
  EXPECT_EQ(doc->NumberOr("ratio", -1), 0.25);
  const JsonValue* repaired = doc->Find("repaired");
  ASSERT_NE(repaired, nullptr);
  EXPECT_TRUE(repaired->is_bool());
  EXPECT_TRUE(repaired->bool_value());
  EXPECT_EQ(doc->StringOr("path", ""), "a \"b\"\n.csv");
  EXPECT_EQ(doc->NumberOr("delta", 0), -2);
}

TEST(LogFormatTest, HumanLineCarriesLevelClockAndSpan) {
  const std::string line = FormatHumanLine(SampleRecord());
  EXPECT_EQ(line.rfind("W 1.234567 io.csv: rows quarantined", 0), 0u) << line;
  EXPECT_NE(line.find("rows=3"), std::string::npos) << line;
  EXPECT_NE(line.find("[span 42]"), std::string::npos) << line;
}

// --- logger ---------------------------------------------------------------

LoggerOptions QuietFileOptions(const std::string& path) {
  LoggerOptions options;
  options.min_level = LogLevel::kDebug;
  options.stderr_level = LogLevel::kOff;  // keep test output clean
  options.file_path = path;
  return options;
}

TEST(LoggerTest, RecordsLandInTheFileSinkOnDrain) {
  const std::string path = TempPath("logger_basic.jsonl");
  Logger logger;
  ASSERT_TRUE(logger.Configure(QuietFileOptions(path)).ok());
  logger.Log(LogLevel::kInfo, "test", "first",
             {LogField::Uint("n", 1)});
  logger.Log(LogLevel::kDebug, "test", "second");
  logger.Close();

  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_TRUE(ParseJson(line).ok()) << line;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

TEST(LoggerTest, MinLevelFiltersAtTheCallSite) {
  const std::string path = TempPath("logger_filter.jsonl");
  LoggerOptions options = QuietFileOptions(path);
  options.min_level = LogLevel::kWarn;
  Logger logger;
  ASSERT_TRUE(logger.Configure(options).ok());
  logger.Log(LogLevel::kDebug, "test", "invisible");
  logger.Log(LogLevel::kInfo, "test", "invisible");
  logger.Log(LogLevel::kError, "test", "visible");
  logger.Close();
  EXPECT_EQ(logger.records_logged(), 1u);
  const std::string text = ReadAll(path);
  EXPECT_EQ(text.find("invisible"), std::string::npos) << text;
  EXPECT_NE(text.find("visible"), std::string::npos) << text;
  std::remove(path.c_str());
}

// Deterministic suppression: LogAt drives the rate limiter with explicit
// timestamps, so the accept/suppress pattern is a pure function of them.
TEST(LoggerTest, RateLimiterSuppressionIsDeterministic) {
  const auto run = [](Logger& logger) {
    std::vector<uint64_t> logged_after;
    // 30 records within 30 ms: the burst of 20 is admitted, the rest are
    // suppressed (30 ms refill 0.15 tokens).
    for (int i = 0; i < 30; ++i) {
      logger.LogAt(i * 1000, LogLevel::kInfo, "noisy", "tick");
      logged_after.push_back(logger.records_logged());
    }
    // 0.4 s later 5/s have refilled two whole tokens: two more records.
    for (int i = 0; i < 3; ++i) {
      logger.LogAt(429'000 + i, LogLevel::kInfo, "noisy", "tock");
      logged_after.push_back(logger.records_logged());
    }
    return logged_after;
  };

  LoggerOptions options;
  options.min_level = LogLevel::kDebug;
  options.stderr_level = LogLevel::kOff;

  Logger first;
  ASSERT_TRUE(first.Configure(options).ok());
  Logger second;
  ASSERT_TRUE(second.Configure(options).ok());
  const auto a = run(first);
  const auto b = run(second);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[19], 20u);
  EXPECT_EQ(a[29], 20u);
  EXPECT_EQ(a.back(), 22u);
  EXPECT_EQ(first.records_suppressed(), 11u);
}

// Distinct (component, severity) keys rate-limit independently.
TEST(LoggerTest, RateLimiterKeysAreIndependent) {
  LoggerOptions options;
  options.min_level = LogLevel::kDebug;
  options.stderr_level = LogLevel::kOff;
  Logger logger;
  ASSERT_TRUE(logger.Configure(options).ok());
  for (int i = 0; i < 21; ++i) {
    logger.LogAt(0, LogLevel::kInfo, "alpha", "x");  // the 21st is suppressed
  }
  logger.LogAt(0, LogLevel::kWarn, "alpha", "x");  // other severity: admitted
  logger.LogAt(0, LogLevel::kInfo, "beta", "x");   // other component: admitted
  EXPECT_EQ(logger.records_logged(), 22u);
  EXPECT_EQ(logger.records_suppressed(), 1u);
}

// Log writes and flushes each record before it returns, so a single
// producer's burst is in the file, line for line, while the sink is open.
TEST(LoggerTest, SingleProducerDrainsItselfWithoutDropping) {
  const std::string path = TempPath("logger_self_drain.jsonl");
  Logger logger;
  LoggerOptions options = QuietFileOptions(path);
  options.min_level = LogLevel::kInfo;
  ASSERT_TRUE(logger.Configure(options).ok());
  for (int i = 0; i < 100; ++i) {
    // Distinct components keep every record clear of the rate limiter.
    logger.Log(LogLevel::kInfo, "test.c" + std::to_string(i), "record");
    EXPECT_EQ(CountLines(path), static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(logger.records_logged(), 100u);
  logger.Close();
  EXPECT_EQ(CountLines(path), 100u);
  std::remove(path.c_str());
}

TEST(LoggerTest, ConfigureFailsCleanlyOnUnopenablePath) {
  Logger logger;
  LoggerOptions options;
  options.file_path = testing::TempDir() + "/no/such/dir/x.jsonl";
  const Status status = logger.Configure(options);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

// Records carry the innermost open trace span, which is what lets a JSONL
// line join against the Chrome trace written by the same run.
TEST(LoggerTest, RecordsCarryTheCurrentSpanId) {
  const std::string path = TempPath("logger_span.jsonl");
  Logger logger;
  ASSERT_TRUE(logger.Configure(QuietFileOptions(path)).ok());
  TraceSession session;
  InstallGlobalTraceSession(&session);
  {
    StageTimer stage("log_test.outer");
    logger.Log(LogLevel::kInfo, "test", "inside");
  }
  InstallGlobalTraceSession(nullptr);
  logger.Log(LogLevel::kInfo, "test", "outside");
  logger.Close();

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto inside = ParseJson(line);
  ASSERT_TRUE(inside.ok());
  EXPECT_GT(inside->NumberOr("span", 0), 0) << line;
  ASSERT_TRUE(std::getline(in, line));
  const auto outside = ParseJson(line);
  ASSERT_TRUE(outside.ok());
  EXPECT_EQ(outside->NumberOr("span", -1), 0) << line;
  std::remove(path.c_str());
}

// Concurrent producers serialize on the logger's one mutex: every record
// is either suppressed by the rate limiter or written to the file as one
// whole line.
TEST(LoggerTest, ConcurrentProducersAccountForEveryRecord) {
  const std::string path = TempPath("logger_mpsc.jsonl");
  Logger logger;
  ASSERT_TRUE(logger.Configure(QuietFileOptions(path)).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&logger, t] {
      for (int i = 0; i < kPerThread; ++i) {
        logger.Log(LogLevel::kInfo, "mpsc", "m",
                   {LogField::Int("t", t), LogField::Int("i", i)});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  logger.Close();

  EXPECT_EQ(logger.records_logged() + logger.records_suppressed(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GE(logger.records_logged(), 20u);  // at least the burst
  EXPECT_EQ(CountLines(path), logger.records_logged());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace homets::obs
