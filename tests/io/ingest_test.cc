// Resilient-ingestion tests: the malformed gateway-CSV fixture corpus under
// tests/io/fixtures/ run through both ErrorPolicy values, plus the per-file
// error cap and the ingest metric counters. IngestSeriesTest checks one
// device's series; IngestGatewayTest checks device-level outcomes. The corpus path comes
// in via HOMETS_IO_FIXTURES_DIR (set in tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "io/csv.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "ts/time_series.h"

namespace homets::io {
namespace {

std::string Fixture(const std::string& name) {
  return std::string(HOMETS_IO_FIXTURES_DIR) + "/" + name;
}

ReadOptions Policy(ErrorPolicy policy) {
  ReadOptions options;
  options.policy = policy;
  return options;
}

TEST(IngestSeriesTest, BadHeaderStrictFailsOthersQuarantine) {
  EXPECT_EQ(ReadGatewayCsv(Fixture("bad_header.csv")).status().code(),
            StatusCode::kInvalidArgument);
  IngestReport report;
  const auto loaded =
      ReadGatewayCsv(Fixture("bad_header.csv"),
                     Policy(ErrorPolicy::kSkipAndReport), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->devices.size(), 1u);
  EXPECT_EQ(loaded->devices[0].incoming.size(), 4u);
  EXPECT_EQ(report.rows_malformed, 1u);
  ASSERT_FALSE(report.quarantine.empty());
  EXPECT_EQ(report.quarantine[0].line, 1u);
  EXPECT_EQ(report.quarantine[0].reason, "bad header");
}

TEST(IngestSeriesTest, NonNumericCellsQuarantinedWithSamples) {
  EXPECT_EQ(ReadGatewayCsv(Fixture("non_numeric.csv")).status().code(),
            StatusCode::kInvalidArgument);
  IngestReport report;
  const auto loaded =
      ReadGatewayCsv(Fixture("non_numeric.csv"),
                     Policy(ErrorPolicy::kSkipAndReport), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ts::TimeSeries& in = loaded->devices[0].incoming;
  ASSERT_EQ(in.size(), 4u);  // minutes 0..3 survive
  EXPECT_DOUBLE_EQ(in[2], 2.5);
  EXPECT_EQ(report.rows_parsed, 4u);
  EXPECT_EQ(report.rows_malformed, 2u);
  ASSERT_EQ(report.quarantine.size(), 2u);
  EXPECT_EQ(report.quarantine[0].text, "cam,fixed,unlabeled,oops,9.9,0.1");
  EXPECT_EQ(report.quarantine[0].reason, "unparseable cell or type");
  EXPECT_EQ(report.quarantine[1].line, 5u);
}

TEST(IngestSeriesTest, DuplicateMinuteFirstRowWins) {
  EXPECT_FALSE(ReadGatewayCsv(Fixture("duplicate_minute.csv")).ok());
  IngestReport report;
  const auto loaded =
      ReadGatewayCsv(Fixture("duplicate_minute.csv"),
                     Policy(ErrorPolicy::kSkipAndReport), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ts::TimeSeries& in = loaded->devices[0].incoming;
  ASSERT_EQ(in.size(), 4u);
  EXPECT_DOUBLE_EQ(in[1], 2.0);  // not the 2.5 from the repeat
  EXPECT_DOUBLE_EQ(loaded->devices[0].outgoing[1], 0.2);
  EXPECT_EQ(report.rows_duplicate, 1u);
  EXPECT_EQ(report.SkippedTotal(), 1u);
}

TEST(IngestSeriesTest, GapsFilledWithMissingMarkers) {
  // The long format names minutes, so a gap is simply minutes with no row:
  // every policy reads them as explicit Missing values.
  const auto loaded = ReadGatewayCsv(Fixture("gapped.csv"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ts::TimeSeries& in = loaded->devices[0].incoming;
  ASSERT_EQ(in.size(), 7u);  // minutes 0..6 on a step-1 grid
  EXPECT_EQ(in.step_minutes(), 1);
  EXPECT_TRUE(ts::TimeSeries::IsMissing(in[3]));
  EXPECT_TRUE(ts::TimeSeries::IsMissing(in[4]));
  EXPECT_DOUBLE_EQ(in[5], 6.0);
}

TEST(IngestSeriesTest, EmbeddedNulByteIsMalformedNotFatal) {
  EXPECT_FALSE(ReadGatewayCsv(Fixture("embedded_nul.csv")).ok());
  IngestReport report;
  const auto loaded =
      ReadGatewayCsv(Fixture("embedded_nul.csv"),
                     Policy(ErrorPolicy::kSkipAndReport), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ts::TimeSeries& in = loaded->devices[0].incoming;
  ASSERT_EQ(in.size(), 3u);  // minutes 0 and 2, with minute 1 Missing
  EXPECT_TRUE(ts::TimeSeries::IsMissing(in[1]));
  EXPECT_DOUBLE_EQ(in[2], 3.0);
  EXPECT_EQ(report.rows_malformed, 1u);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].text.size(), 31u);  // the NUL is kept
}

TEST(IngestSeriesTest, ErrorCapFailsThoroughlyCorruptFile) {
  const std::string path = testing::TempDir() + "/corrupt_flood.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("device,true_type,reported_type,minute,incoming,outgoing\n",
               f);
    for (size_t i = 0; i < kMaxQuarantinedRows + 1; ++i) {
      std::fputs("garbage\n", f);
    }
    std::fclose(f);
  }
  const auto loaded =
      ReadGatewayCsv(path, Policy(ErrorPolicy::kSkipAndReport));
  // InvalidArgument, not IoError: a content problem must never be retried.
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("too many bad rows"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(IngestSeriesTest, QuarantineSampleIsCappedButCountsAreExact) {
  const std::string path = testing::TempDir() + "/many_bad.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("device,true_type,reported_type,minute,incoming,outgoing\n",
               f);
    for (int i = 0; i < 30; ++i) std::fputs("junk\n", f);
    std::fputs("d,fixed,fixed,0,1.0,1.0\nd,fixed,fixed,1,2.0,2.0\n", f);
    std::fclose(f);
  }
  IngestReport report;
  const auto loaded =
      ReadGatewayCsv(path, Policy(ErrorPolicy::kSkipAndReport), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.rows_malformed, 30u);
  EXPECT_EQ(report.rows_parsed, 2u);
  EXPECT_EQ(report.quarantine.size(), 16u);
  EXPECT_EQ(report.quarantine.back().line, 17u);
  std::remove(path.c_str());
}

TEST(IngestSeriesTest, IngestMetricsAggregateAcrossReads) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* const malformed =
      registry.GetCounter(obs::kIngestRowsMalformed);
  obs::Counter* const duplicate =
      registry.GetCounter(obs::kIngestRowsDuplicate);
  const uint64_t malformed_before = malformed->Value();
  const uint64_t duplicate_before = duplicate->Value();
  IngestReport report;
  ASSERT_TRUE(ReadGatewayCsv(Fixture("mess.csv"),
                             Policy(ErrorPolicy::kSkipAndReport), &report)
                  .ok());
  EXPECT_EQ(malformed->Value(), malformed_before + 1);
  EXPECT_EQ(duplicate->Value(), duplicate_before + 1);
  EXPECT_EQ(report.rows_parsed, 4u);
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("4 rows"), std::string::npos);
  EXPECT_NE(summary.find("1 malformed"), std::string::npos);
  EXPECT_NE(summary.find("1 duplicate"), std::string::npos);
}

TEST(IngestGatewayTest, DuplicateObservationFirstRowWins) {
  const auto strict = ReadGatewayCsv(Fixture("gateway_dup.csv"));
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find("duplicate observation"),
            std::string::npos);
  IngestReport report;
  const auto loaded =
      ReadGatewayCsv(Fixture("gateway_dup.csv"),
                     Policy(ErrorPolicy::kSkipAndReport), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->devices.size(), 2u);
  EXPECT_EQ(report.rows_duplicate, 1u);
  EXPECT_EQ(report.rows_parsed, 3u);
  // devices are name-sorted: cam first.
  EXPECT_EQ(loaded->devices[0].name, "cam");
  EXPECT_DOUBLE_EQ(loaded->devices[0].incoming[1], 3.0);  // not the 9.0 dup
}

TEST(IngestGatewayTest, UnknownDeviceTypeQuarantined) {
  EXPECT_EQ(ReadGatewayCsv(Fixture("gateway_badtype.csv")).status().code(),
            StatusCode::kInvalidArgument);
  IngestReport report;
  const auto loaded =
      ReadGatewayCsv(Fixture("gateway_badtype.csv"),
                     Policy(ErrorPolicy::kSkipAndReport), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->devices.size(), 1u);
  EXPECT_EQ(loaded->devices[0].true_type, simgen::DeviceType::kFixed);
  EXPECT_EQ(report.rows_malformed, 1u);
  EXPECT_EQ(report.rows_parsed, 2u);
  ASSERT_FALSE(report.quarantine.empty());
  EXPECT_EQ(report.quarantine[0].reason, "unparseable cell or type");
}

TEST(IngestGatewayTest, QuarantinedDuplicateLeavesDeviceTypes) {
  const std::string path = testing::TempDir() + "/dup_types.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "device,true_type,reported_type,minute,incoming,outgoing\n"
        "cam,fixed,unlabeled,0,1.0,2.0\n"
        "cam,fixed,unlabeled,1,3.0,4.0\n"
        "cam,portable,game_console,1,9.0,9.0\n",
        f);
    std::fclose(f);
  }
  IngestReport report;
  const auto loaded =
      ReadGatewayCsv(path, Policy(ErrorPolicy::kSkipAndReport), &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.rows_duplicate, 1u);
  ASSERT_EQ(loaded->devices.size(), 1u);
  EXPECT_EQ(loaded->devices[0].true_type, simgen::DeviceType::kFixed);
  EXPECT_EQ(loaded->devices[0].reported_type, simgen::DeviceType::kUnlabeled);
  std::remove(path.c_str());
}

TEST(IngestGatewayTest, LastAcceptedRowTypesWin) {
  const std::string path = testing::TempDir() + "/retyped.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "device,true_type,reported_type,minute,incoming,outgoing\n"
        "cam,fixed,unlabeled,0,1.0,2.0\n"
        "cam,portable,game_console,1,3.0,4.0\n",
        f);
    std::fclose(f);
  }
  const auto loaded = ReadGatewayCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->devices[0].true_type, simgen::DeviceType::kPortable);
  EXPECT_EQ(loaded->devices[0].reported_type,
            simgen::DeviceType::kGameConsole);
  std::remove(path.c_str());
}

TEST(IngestGatewayTest, StrictOverloadMatchesDefaultOptions) {
  // A path-only call defaults to exactly ReadOptions{}: same failure, same
  // code, so the default options are the strict ones.
  const auto wrapper = ReadGatewayCsv(Fixture("gateway_dup.csv"));
  const auto explicit_strict =
      ReadGatewayCsv(Fixture("gateway_dup.csv"), ReadOptions{});
  EXPECT_EQ(wrapper.status().code(), explicit_strict.status().code());
  EXPECT_EQ(wrapper.status().message(), explicit_strict.status().message());
}

}  // namespace
}  // namespace homets::io
