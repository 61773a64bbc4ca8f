// Edge behaviour of the gateway CSV reader, pinned byte for byte: line
// endings, read-block boundaries, blank lines, whitespace, negative minutes,
// empty cells, row order, duplicates, field counts, embedded NUL bytes, and
// the `homets.io.*` counters each read publishes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>

#include "common/failpoint.h"
#include "io/csv.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "ts/time_series.h"

namespace homets::io {
namespace {

constexpr char kHeader[] =
    "device,true_type,reported_type,minute,incoming,outgoing\n";

/// Writes `contents` verbatim (NUL bytes and all) and returns the path.
std::string WriteFile(const std::string& name, const std::string& contents) {
  const std::string path = testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr) << path;
  if (f != nullptr) {
    EXPECT_EQ(std::fwrite(contents.data(), 1, contents.size(), f),
              contents.size());
    std::fclose(f);
  }
  return path;
}

uint64_t CounterValue(std::string_view name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

ReadOptions Skip() {
  ReadOptions options;
  options.policy = ErrorPolicy::kSkipAndReport;
  return options;
}

class GatewayCsvEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Global().Reset(); }
  void TearDown() override { Failpoints::Global().Reset(); }
};

TEST_F(GatewayCsvEdgeTest, ZeroByteFileIsEmptyFile) {
  const auto loaded = ReadGatewayCsv(WriteFile("zero.csv", ""));
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("empty file"), std::string::npos);
}

TEST_F(GatewayCsvEdgeTest, HeaderOnlyHasNoDataRows) {
  const auto loaded = ReadGatewayCsv(WriteFile("header_only.csv", kHeader));
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("no data rows"),
            std::string::npos);
}

TEST_F(GatewayCsvEdgeTest, CrlfLineEndings) {
  const std::string path = WriteFile(
      "crlf.csv",
      "device,true_type,reported_type,minute,incoming,outgoing\r\n"
      "cam,fixed,unlabeled,0,1.5,2.5\r\n"
      "cam,fixed,unlabeled,1,3,4\r\n");
  IngestReport report;
  const auto loaded = ReadGatewayCsv(path, ReadOptions{}, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->devices.size(), 1u);
  EXPECT_EQ(loaded->devices[0].name, "cam");
  ASSERT_EQ(loaded->devices[0].incoming.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->devices[0].incoming[0], 1.5);
  EXPECT_DOUBLE_EQ(loaded->devices[0].outgoing[0], 2.5);
  EXPECT_DOUBLE_EQ(loaded->devices[0].outgoing[1], 4.0);
  EXPECT_EQ(report.rows_parsed, 2u);
}

TEST_F(GatewayCsvEdgeTest, NoTrailingNewline) {
  const std::string path =
      WriteFile("no_newline.csv", std::string(kHeader) +
                                      "cam,fixed,unlabeled,0,1,2\n"
                                      "cam,fixed,unlabeled,1,3,4");
  IngestReport report;
  const auto loaded = ReadGatewayCsv(path, ReadOptions{}, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.rows_parsed, 2u);
  EXPECT_DOUBLE_EQ(loaded->devices[0].outgoing[1], 4.0);
}

// A device name longer than any read block: the row straddles at least two
// blocks, and the name comes back whole.
TEST_F(GatewayCsvEdgeTest, LineLongerThanReadBlock) {
  const std::string name(600 * 1024, 'n');
  const std::string path =
      WriteFile("long_line.csv", std::string(kHeader) + name +
                                     ",fixed,unlabeled,0,1,2\n"
                                     "short,fixed,unlabeled,0,5,6\n");
  const auto loaded = ReadGatewayCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->devices.size(), 2u);
  EXPECT_EQ(loaded->devices[0].name, name);
  EXPECT_DOUBLE_EQ(loaded->devices[0].outgoing[0], 2.0);
  EXPECT_DOUBLE_EQ(loaded->devices[1].incoming[0], 5.0);
}

// 2 MiB with no '\n', twice the line cap: a malformed row under both
// policies, read past rather than buffered whole.
TEST_F(GatewayCsvEdgeTest, NewlineFreeLineOverCapIsMalformed) {
  const std::string long_line(size_t{2} << 20, 'x');
  const std::string path =
      WriteFile("overlong.csv", std::string(kHeader) +
                                    "cam,fixed,unlabeled,0,1,2\n" + long_line +
                                    "\ncam,fixed,unlabeled,1,3,4\n");
  const auto strict = ReadGatewayCsv(path);
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find("line 3 "), std::string::npos)
      << strict.status().message();
  // A parse error, so a retry budget is never spent on it.
  ReadOptions retrying;
  retrying.max_retries = 2;
  IngestReport strict_report;
  EXPECT_EQ(ReadGatewayCsv(path, retrying, &strict_report).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(strict_report.retries, 0u);

  IngestReport report;
  const auto loaded = ReadGatewayCsv(path, Skip(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.rows_malformed, 1u);
  EXPECT_EQ(report.rows_parsed, 2u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].line, 3u);
  EXPECT_EQ(report.quarantine[0].reason, "line too long");
  EXPECT_LT(report.quarantine[0].text.size(), size_t{1024});
  EXPECT_DOUBLE_EQ(loaded->devices[0].incoming[1], 3.0);
}

// A whole file of 2 MiB with no '\n' at all: its one line, cut to its
// first bytes, is a bad header under both policies.
TEST_F(GatewayCsvEdgeTest, NewlineFreeFileOverCapIsBadHeader) {
  const std::string path =
      WriteFile("overlong_file.csv", std::string(size_t{2} << 20, 'x'));
  const auto strict = ReadGatewayCsv(path);
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find("bad header"), std::string::npos);
  EXPECT_LT(strict.status().message().size(), size_t{1024});
  IngestReport report;
  const auto skipped = ReadGatewayCsv(path, Skip(), &report);
  EXPECT_EQ(skipped.status().code(), StatusCode::kIoError);
  EXPECT_NE(skipped.status().message().find("no data rows"),
            std::string::npos);
  EXPECT_EQ(report.rows_malformed, 1u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].reason, "bad header");
  EXPECT_LT(report.quarantine[0].text.size(), size_t{1024});
}

// About 1.3 MB of rows of varying length, so lines straddle the boundaries
// of every read block; every value must come back.
TEST_F(GatewayCsvEdgeTest, FileOfSeveralReadBlocks) {
  constexpr int kRows = 40000;
  std::string contents = kHeader;
  for (int i = 0; i < kRows; ++i) {
    const std::string device = "dev" + std::to_string(i % 3);
    contents += device + ",portable,portable," + std::to_string(i / 3) + "," +
                std::to_string(i) + "." + std::string(i % 5, '0') + "," +
                std::to_string(i % 97) + "\n";
  }
  // The fixture straddles a 256 KiB boundary mid-line.
  ASSERT_GT(contents.size(), size_t{4} << 18);
  ASSERT_NE(contents[(size_t{1} << 18) - 1], '\n');
  const std::string path = WriteFile("blocks.csv", contents);
  IngestReport report;
  const auto loaded = ReadGatewayCsv(path, ReadOptions{}, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.rows_parsed, static_cast<size_t>(kRows));
  ASSERT_EQ(loaded->devices.size(), 3u);
  for (int i = 0; i < kRows; ++i) {
    const auto& dev = loaded->devices[static_cast<size_t>(i % 3)];
    const size_t idx = static_cast<size_t>(i / 3);
    ASSERT_DOUBLE_EQ(dev.incoming[idx], static_cast<double>(i)) << i;
    ASSERT_DOUBLE_EQ(dev.outgoing[idx], static_cast<double>(i % 97)) << i;
  }
}

TEST_F(GatewayCsvEdgeTest, BlankAndWhitespaceLinesSkipped) {
  const std::string path =
      WriteFile("blank.csv", std::string(kHeader) +
                                 "\n"
                                 "cam,fixed,unlabeled,0,1,2\n"
                                 "   \n"
                                 "\t\r\n"
                                 "cam,fixed,unlabeled,1,3,4\n"
                                 "\n");
  const uint64_t skipped_before = CounterValue(obs::kIoRowsSkipped);
  IngestReport report;
  const auto loaded = ReadGatewayCsv(path, ReadOptions{}, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.rows_parsed, 2u);
  EXPECT_EQ(report.SkippedTotal(), 0u);
  EXPECT_EQ(CounterValue(obs::kIoRowsSkipped), skipped_before + 4);
}

TEST_F(GatewayCsvEdgeTest, SpacesAroundNumericFields) {
  const std::string path = WriteFile(
      "spaces.csv",
      std::string(kHeader) + "cam,fixed,unlabeled, 5 , 1.5 ,\t2.5 \n");
  const auto loaded = ReadGatewayCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->devices[0].incoming.start_minute(), 5);
  EXPECT_DOUBLE_EQ(loaded->devices[0].incoming[0], 1.5);
  EXPECT_DOUBLE_EQ(loaded->devices[0].outgoing[0], 2.5);
  // Type names are matched exactly: a padded one is not a type.
  EXPECT_FALSE(ReadGatewayCsv(WriteFile("spaced_type.csv",
                                        std::string(kHeader) +
                                            "cam, fixed,unlabeled,0,1,2\n"))
                   .ok());
}

TEST_F(GatewayCsvEdgeTest, NegativeMinutes) {
  const std::string path =
      WriteFile("negative.csv", std::string(kHeader) +
                                    "cam,fixed,unlabeled,-2,1,1\n"
                                    "cam,fixed,unlabeled,-1,2,2\n"
                                    "cam,fixed,unlabeled,0,3,3\n");
  const auto loaded = ReadGatewayCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->devices[0].incoming.start_minute(), -2);
  ASSERT_EQ(loaded->devices[0].incoming.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded->devices[0].incoming[2], 3.0);
}

TEST_F(GatewayCsvEdgeTest, EmptyCellsBecomeMissing) {
  const std::string path =
      WriteFile("empty_cells.csv", std::string(kHeader) +
                                       "cam,fixed,unlabeled,0,,2\n"
                                       "cam,fixed,unlabeled,1,1,\n");
  const auto loaded = ReadGatewayCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto& dev = loaded->devices[0];
  EXPECT_TRUE(ts::TimeSeries::IsMissing(dev.incoming[0]));
  EXPECT_DOUBLE_EQ(dev.outgoing[0], 2.0);
  EXPECT_DOUBLE_EQ(dev.incoming[1], 1.0);
  EXPECT_TRUE(ts::TimeSeries::IsMissing(dev.outgoing[1]));
}

// Rows not grouped by device; devices come back in name order on the
// gateway-wide minute span.
TEST_F(GatewayCsvEdgeTest, InterleavedDevices) {
  const std::string path =
      WriteFile("interleaved.csv", std::string(kHeader) +
                                       "zeta,fixed,fixed,0,1,10\n"
                                       "alpha,portable,portable,0,2,20\n"
                                       "zeta,fixed,fixed,1,3,30\n"
                                       "alpha,portable,portable,1,4,40\n"
                                       "zeta,fixed,fixed,2,5,50\n");
  const auto loaded = ReadGatewayCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->devices.size(), 2u);
  const auto& alpha = loaded->devices[0];
  const auto& zeta = loaded->devices[1];
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.true_type, simgen::DeviceType::kPortable);
  ASSERT_EQ(alpha.incoming.size(), 3u);
  EXPECT_DOUBLE_EQ(alpha.incoming[1], 4.0);
  EXPECT_TRUE(ts::TimeSeries::IsMissing(alpha.incoming[2]));
  EXPECT_EQ(zeta.name, "zeta");
  EXPECT_DOUBLE_EQ(zeta.outgoing[2], 50.0);
}

TEST_F(GatewayCsvEdgeTest, NonAdjacentDuplicateFirstObservationWins) {
  const std::string path =
      WriteFile("dup_far.csv", std::string(kHeader) +
                                   "cam,fixed,unlabeled,0,1,1\n"
                                   "cam,fixed,unlabeled,1,2,2\n"
                                   "tv,fixed,fixed,0,7,7\n"
                                   "cam,fixed,unlabeled,2,3,3\n"
                                   "cam,fixed,unlabeled,0,9,9\n"
                                   "cam,fixed,unlabeled,3,4,4\n");
  const auto strict = ReadGatewayCsv(path);
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find("device cam minute 0"),
            std::string::npos);
  IngestReport report;
  const auto loaded = ReadGatewayCsv(path, Skip(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.rows_duplicate, 1u);
  EXPECT_EQ(report.rows_parsed, 5u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].line, 6u);
  EXPECT_EQ(report.quarantine[0].text, "cam,fixed,unlabeled,0,9,9");
  EXPECT_DOUBLE_EQ(loaded->devices[0].incoming[0], 1.0);
  EXPECT_DOUBLE_EQ(loaded->devices[0].incoming[3], 4.0);
}

TEST_F(GatewayCsvEdgeTest, OutOfOrderUniqueMinutesAccepted) {
  const std::string path =
      WriteFile("unordered.csv", std::string(kHeader) +
                                     "cam,fixed,unlabeled,3,4,4\n"
                                     "cam,fixed,unlabeled,1,2,2\n"
                                     "cam,fixed,unlabeled,2,3,3\n"
                                     "cam,fixed,unlabeled,0,1,1\n"
                                     "cam,fixed,unlabeled,2,8,8\n");
  // Strict refuses only the repeated minute 2, not the order.
  EXPECT_FALSE(ReadGatewayCsv(path).ok());
  IngestReport report;
  const auto loaded = ReadGatewayCsv(path, Skip(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.rows_parsed, 4u);
  EXPECT_EQ(report.rows_duplicate, 1u);
  const auto& dev = loaded->devices[0];
  ASSERT_EQ(dev.incoming.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(dev.incoming[i], static_cast<double>(i) + 1.0) << i;
  }
  const auto unique = ReadGatewayCsv(
      WriteFile("unordered_unique.csv", std::string(kHeader) +
                                            "cam,fixed,unlabeled,3,4,4\n"
                                            "cam,fixed,unlabeled,1,2,2\n"
                                            "cam,fixed,unlabeled,0,1,1\n"));
  ASSERT_TRUE(unique.ok()) << unique.status().ToString();
  EXPECT_DOUBLE_EQ(unique->devices[0].incoming[3], 4.0);
  EXPECT_TRUE(ts::TimeSeries::IsMissing(unique->devices[0].incoming[2]));
}

TEST_F(GatewayCsvEdgeTest, FiveOrSevenFieldsAreMalformed) {
  const std::string path =
      WriteFile("arity.csv", std::string(kHeader) +
                                 "cam,fixed,unlabeled,0,1\n"
                                 "cam,fixed,unlabeled,1,1,2,3\n"
                                 "cam,fixed,unlabeled,2,1,2,\n"
                                 "cam,fixed,unlabeled,3,5,6\n");
  const auto strict = ReadGatewayCsv(path);
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find("malformed row"),
            std::string::npos);
  // A parse error, so a retry budget is never spent on it.
  ReadOptions retrying;
  retrying.max_retries = 2;
  IngestReport strict_report;
  EXPECT_EQ(ReadGatewayCsv(path, retrying, &strict_report).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(strict_report.retries, 0u);
  IngestReport report;
  const auto loaded = ReadGatewayCsv(path, Skip(), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.rows_malformed, 3u);
  EXPECT_EQ(report.rows_parsed, 1u);
  ASSERT_EQ(report.quarantine.size(), 3u);
  EXPECT_EQ(report.quarantine[0].reason, "wrong field count");
  EXPECT_EQ(report.quarantine[2].text, "cam,fixed,unlabeled,2,1,2,");
  EXPECT_EQ(loaded->devices[0].incoming.start_minute(), 3);
}

// Every device is materialized on the file's whole minute span, so a span
// from untrusted minutes is checked before it is allocated.
TEST_F(GatewayCsvEdgeTest, MinuteSpanBeyondBoundIsInvalidArgument) {
  const auto read = [](const std::string& name, int64_t first, int64_t last) {
    return ReadGatewayCsv(WriteFile(
        name, std::string(kHeader) + "cam,fixed,unlabeled," +
                  std::to_string(first) + ",1,2\n" + "cam,fixed,unlabeled," +
                  std::to_string(last) + ",3,4\n"));
  };
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const struct {
    const char* name;
    int64_t first;
    int64_t last;
  } refused[] = {{"span_1e15.csv", 0, 1000000000000000},
                 {"span_full_range.csv", kMin, kMax},
                 {"span_min_to_zero.csv", kMin, 0},
                 {"span_zero_to_max.csv", 0, kMax},
                 {"span_ends_at_max.csv", kMax - 1, kMax},
                 {"span_one_past_bound.csv", 0, kMaxMinuteSpan}};
  for (const auto& c : refused) {
    SCOPED_TRACE(c.name);
    const auto loaded = read(c.name, c.first, c.last);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("-minute span"),
              std::string::npos)
        << loaded.status().ToString();
  }
  // Extreme minutes with a short span are read as they are.
  const auto low = read("span_near_min.csv", kMin, kMin + 2);
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  EXPECT_EQ(low->devices[0].incoming.start_minute(), kMin);
  EXPECT_EQ(low->devices[0].incoming.size(), 3u);
  const auto high = read("span_near_max.csv", kMax - 3, kMax - 1);
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  EXPECT_EQ(high->devices[0].incoming.EndMinute(), kMax);
  // The bound itself is a readable span.
  const auto widest = read("span_at_bound.csv", 0, kMaxMinuteSpan - 1);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest->devices[0].incoming.size(),
            static_cast<size_t>(kMaxMinuteSpan));
}

TEST_F(GatewayCsvEdgeTest, RowsParsedCounterMatchesReportOnCleanRead) {
  const std::string path =
      WriteFile("count_clean.csv", std::string(kHeader) +
                                       "a,fixed,fixed,0,1,1\n"
                                       "b,fixed,fixed,0,1,1\n"
                                       "a,fixed,fixed,1,1,1\n");
  const uint64_t before = CounterValue(obs::kIoRowsParsed);
  IngestReport report;
  ASSERT_TRUE(ReadGatewayCsv(path, ReadOptions{}, &report).ok());
  EXPECT_EQ(report.rows_parsed, 3u);
  EXPECT_EQ(CounterValue(obs::kIoRowsParsed) - before, report.rows_parsed);
}

TEST_F(GatewayCsvEdgeTest, RowsParsedCounterMatchesReportOnCapExceededRead) {
  std::string contents = std::string(kHeader) +
                         "a,fixed,fixed,0,1,1\n"
                         "a,fixed,fixed,1,1,1\n";
  for (int i = 0; i < 4; ++i) contents += "junk\n";
  contents += "a,fixed,fixed,2,1,1\n";
  const std::string path = WriteFile("count_cap.csv", contents);
  ReadOptions options = Skip();
  options.max_errors = 2;
  const uint64_t before = CounterValue(obs::kIoRowsParsed);
  IngestReport report;
  const auto loaded = ReadGatewayCsv(path, options, &report);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report.rows_parsed, 2u);
  EXPECT_EQ(report.rows_malformed, 3u);
  EXPECT_EQ(CounterValue(obs::kIoRowsParsed) - before, report.rows_parsed);
}

TEST_F(GatewayCsvEdgeTest, RowsParsedCounterOnRetriedRead) {
  const std::string path =
      WriteFile("count_retry.csv", std::string(kHeader) +
                                       "a,fixed,fixed,0,1,1\n"
                                       "a,fixed,fixed,1,1,1\n"
                                       "a,fixed,fixed,2,1,1\n"
                                       "a,fixed,fixed,3,1,1\n");
  ReadOptions options;
  options.max_retries = 2;
  // Failed opens parse nothing: the counter moves by the report's count.
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.open=error*2").ok());
  uint64_t before = CounterValue(obs::kIoRowsParsed);
  IngestReport report;
  ASSERT_TRUE(ReadGatewayCsv(path, options, &report).ok());
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(report.rows_parsed, 4u);
  EXPECT_EQ(CounterValue(obs::kIoRowsParsed) - before, report.rows_parsed);
  // A read error on the third data row abandons an attempt that had already
  // accepted two rows; the counter keeps them, the report does not.
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.row=error@3*1").ok());
  before = CounterValue(obs::kIoRowsParsed);
  IngestReport retried;
  ASSERT_TRUE(ReadGatewayCsv(path, options, &retried).ok());
  EXPECT_EQ(retried.retries, 1u);
  EXPECT_EQ(retried.rows_parsed, 4u);
  EXPECT_EQ(CounterValue(obs::kIoRowsParsed) - before,
            retried.rows_parsed + 2);
}

}  // namespace
}  // namespace homets::io
