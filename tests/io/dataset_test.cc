// DatasetReader facade tests: format guessing/forcing, the CSV and columnar
// branches returning the same traces, csv→homets compaction and export, and
// the committed corrupted-.homets fixtures (bad magic, torn trailer, flipped
// chunk byte) each surfacing as a clean Status — never a crash. Fixture path
// comes in via HOMETS_IO_FIXTURES_DIR (set in tests/CMakeLists.txt).
#include "io/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/status.h"
#include "io/csv.h"
#include "simgen/types.h"
#include "storage/homets_format.h"
#include "ts/time_series.h"

namespace homets::io {
namespace {

std::string Fixture(const std::string& name) {
  return std::string(HOMETS_IO_FIXTURES_DIR) + "/" + name;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(InputFormatTest, ParseAndName) {
  ASSERT_TRUE(ParseInputFormat("csv").ok());
  EXPECT_EQ(*ParseInputFormat("csv"), InputFormat::kCsv);
  EXPECT_EQ(*ParseInputFormat("homets"), InputFormat::kHomets);
  EXPECT_EQ(*ParseInputFormat("auto"), InputFormat::kAuto);
  const auto bad = ParseInputFormat("parquet");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("parquet"), std::string::npos);
  EXPECT_EQ(InputFormatName(InputFormat::kHomets), "homets");
}

TEST(InputFormatTest, GuessByExtensionUnlessForced) {
  EXPECT_EQ(GuessFormat("a/b/fleet.homets", InputFormat::kAuto),
            InputFormat::kHomets);
  EXPECT_EQ(GuessFormat("a/b/gw.csv", InputFormat::kAuto), InputFormat::kCsv);
  EXPECT_EQ(GuessFormat("noext", InputFormat::kAuto), InputFormat::kCsv);
  // A forced format wins over the extension.
  EXPECT_EQ(GuessFormat("a/b/fleet.homets", InputFormat::kCsv),
            InputFormat::kCsv);
  EXPECT_EQ(GuessFormat("a/b/gw.csv", InputFormat::kHomets),
            InputFormat::kHomets);
}

// Both facade branches, fed the same trace, must hand back identical data.
TEST(DatasetReaderTest, CsvAndHometsBranchesAgree) {
  auto csv_reader = DatasetReader::Open(Fixture("single_gateway.csv"));
  ASSERT_TRUE(csv_reader.ok()) << csv_reader.status().ToString();
  EXPECT_EQ(csv_reader->format(), InputFormat::kCsv);
  ASSERT_EQ(csv_reader->gateway_count(), 1u);

  auto col_reader = DatasetReader::Open(Fixture("single_gateway.homets"));
  ASSERT_TRUE(col_reader.ok()) << col_reader.status().ToString();
  EXPECT_EQ(col_reader->format(), InputFormat::kHomets);
  ASSERT_EQ(col_reader->gateway_count(), 1u);

  const auto from_csv = csv_reader->ReadGateway(0);
  const auto from_col = col_reader->ReadGateway(0);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  ASSERT_TRUE(from_col.ok()) << from_col.status().ToString();
  ASSERT_EQ(from_csv->devices.size(), from_col->devices.size());
  for (size_t d = 0; d < from_csv->devices.size(); ++d) {
    EXPECT_EQ(from_csv->devices[d].name, from_col->devices[d].name);
    EXPECT_EQ(from_csv->devices[d].reported_type,
              from_col->devices[d].reported_type);
    const auto& a = from_csv->devices[d].incoming;
    const auto& b = from_col->devices[d].incoming;
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      const double av = a[i];
      const double bv = b[i];
      if (ts::TimeSeries::IsMissing(av)) {
        EXPECT_TRUE(ts::TimeSeries::IsMissing(bv));
      } else {
        EXPECT_TRUE(std::memcmp(&av, &bv, sizeof(double)) == 0)
            << "device " << d << " bin " << i;
      }
    }
  }
  EXPECT_EQ(csv_reader->ReadGateway(1).status().code(),
            StatusCode::kOutOfRange);
}

TEST(DatasetReaderTest, ForcedFormatOverridesExtension) {
  // Forcing csv on a binary file must fail in the CSV reader, not crash.
  DatasetOptions options;
  options.format = InputFormat::kCsv;
  auto forced = DatasetReader::Open(Fixture("single_gateway.homets"), options);
  ASSERT_TRUE(forced.ok());  // CSV opens lazily; the read reports the error
  EXPECT_FALSE(forced->ReadGateway(0).ok());
}

TEST(DatasetConvertTest, CompactThenExportIsByteIdentical) {
  const std::string homets = TempPath("compact.homets");
  const std::string csv = TempPath("export.csv");
  const auto stats =
      CompactCsvToHomets(Fixture("single_gateway.csv"), homets);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->gateways, 1u);
  EXPECT_EQ(stats->devices, 2u);
  EXPECT_EQ(stats->rows, 5u);

  auto reader = DatasetReader::Open(homets);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const auto gw = reader->ReadGateway(0);
  ASSERT_TRUE(gw.ok()) << gw.status().ToString();
  ASSERT_TRUE(WriteGatewayFile(csv, *gw, InputFormat::kCsv).ok());
  EXPECT_EQ(FileBytes(csv), FileBytes(Fixture("single_gateway.csv")));
  std::remove(homets.c_str());
  std::remove(csv.c_str());
}

// The resilient read options thread through compaction: a fixture the strict
// reader rejects compacts fine under kSkipAndReport, and the quarantine
// shows up in the caller's report.
TEST(DatasetConvertTest, CompactionHonorsErrorPolicy) {
  const std::string homets = TempPath("dup.homets");
  EXPECT_EQ(CompactCsvToHomets(Fixture("gateway_dup.csv"), homets)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  ReadOptions options;
  options.policy = ErrorPolicy::kSkipAndReport;
  IngestReport report;
  const auto stats =
      CompactCsvToHomets(Fixture("gateway_dup.csv"), homets, options, &report);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(report.rows_duplicate, 1u);
  const auto reader = storage::HometsReader::Open(homets);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->gateway_count(), 1u);
  std::remove(homets.c_str());
}

// The committed corrupted binaries: every one is a clean Status.
TEST(DatasetCorruptFixtureTest, BadMagicIsInvalidArgument) {
  const auto reader = DatasetReader::Open(Fixture("bad_magic.homets"));
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("magic"), std::string::npos);
}

TEST(DatasetCorruptFixtureTest, TruncatedFooterIsIoError) {
  const auto reader = DatasetReader::Open(Fixture("truncated_footer.homets"));
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  EXPECT_NE(reader.status().message().find("torn"), std::string::npos);
}

TEST(DatasetCorruptFixtureTest, CorruptChunkFailsCrcOnRead) {
  auto reader = DatasetReader::Open(Fixture("corrupt_chunk.homets"));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();  // footer is intact
  const auto gw = reader->ReadGateway(0);
  EXPECT_EQ(gw.status().code(), StatusCode::kIoError);
  EXPECT_NE(gw.status().message().find("crc mismatch"), std::string::npos);
}

TEST(DatasetWriteTest, WriteGatewayFilePicksFormatByPath) {
  simgen::GatewayTrace gw;
  simgen::DeviceTrace dev;
  dev.name = "d";
  dev.incoming = ts::TimeSeries(0, 1, {1.0, 2.0});
  dev.outgoing = ts::TimeSeries(0, 1, {0.5, 0.5});
  gw.devices = {dev};

  const std::string homets = TempPath("bypath.homets");
  const std::string csv = TempPath("bypath.csv");
  ASSERT_TRUE(WriteGatewayFile(homets, gw).ok());
  ASSERT_TRUE(WriteGatewayFile(csv, gw).ok());
  EXPECT_TRUE(storage::HometsReader::Open(homets).ok());
  EXPECT_TRUE(ReadGatewayCsv(csv).ok());
  std::remove(homets.c_str());
  std::remove(csv.c_str());
}

}  // namespace
}  // namespace homets::io
