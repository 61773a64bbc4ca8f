// Chaos suite (`ctest -L chaos`): whole-subsystem failpoint schedules
// asserting the three resilience contracts — no crash, clean Status
// propagation, and bit-identical output when retries absorb transient
// faults. Each test installs a schedule, drives a real read or write, and
// disarms; everything else in the process must behave as if the
// schedule never existed.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/status.h"
#include "io/csv.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "simgen/types.h"
#include "storage/homets_format.h"
#include "ts/time_series.h"

namespace homets {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Global().Reset(); }
  void TearDown() override { Failpoints::Global().Reset(); }

  /// A clean gateway file on disk: one device, five rows at minutes 0..4.
  std::string WriteCleanGateway() {
    const std::string path = testing::TempDir() + "/chaos_gateway.csv";
    simgen::GatewayTrace gw;
    simgen::DeviceTrace dev;
    dev.name = "cam";
    dev.incoming = ts::TimeSeries(0, 1, {1.0, 2.0, 3.0, 4.0, 5.0});
    dev.outgoing = ts::TimeSeries(0, 1, {0.5, 1.5, 2.5, 3.5, 4.5});
    gw.devices = {dev};
    EXPECT_TRUE(io::WriteGatewayCsv(path, gw).ok());
    return path;
  }
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const ts::TimeSeries& a, const ts::TimeSeries& b) {
  if (a.start_minute() != b.start_minute() || a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

// Schedule 1: two transient open errors, absorbed by a retry budget of two.
// The result must be bit-identical to the fault-free read.
TEST_F(ChaosTest, TransientOpenErrorsAbsorbedByRetries) {
  const std::string path = WriteCleanGateway();
  const auto clean = io::ReadGatewayCsv(path);
  ASSERT_TRUE(clean.ok());
  const uint64_t retries_before =
      obs::MetricsRegistry::Global().GetCounter(obs::kIngestRetries)->Value();

  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.open=error*2").ok());
  io::ReadOptions options;
  options.max_retries = 2;
  io::IngestReport report;
  const auto retried = io::ReadGatewayCsv(path, options, &report);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(report.retries, 2u);
  ASSERT_EQ(retried->devices.size(), clean->devices.size());
  for (size_t d = 0; d < clean->devices.size(); ++d) {
    EXPECT_TRUE(
        SameBits(retried->devices[d].incoming, clean->devices[d].incoming));
    EXPECT_TRUE(
        SameBits(retried->devices[d].outgoing, clean->devices[d].outgoing));
  }
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter(obs::kIngestRetries)->Value(),
      retries_before + 2);
  std::remove(path.c_str());
}

// Schedule 1b: the same faults with a retry budget of one — the error must
// surface as a clean, retryable IoError, not a crash or a mangled result.
TEST_F(ChaosTest, TransientErrorsBeyondBudgetPropagateCleanly) {
  const std::string path = WriteCleanGateway();
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.open=error*2").ok());
  io::ReadOptions options;
  options.max_retries = 1;
  io::IngestReport report;
  const auto failed = io::ReadGatewayCsv(path, options, &report);
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_NE(failed.status().message().find("io.csv.open"),
            std::string::npos);
  EXPECT_EQ(report.retries, 1u);
  std::remove(path.c_str());
}

// Schedule 2: one corrupted row, observed under both error policies.
TEST_F(ChaosTest, CorruptRowUnderEveryPolicy) {
  const std::string path = WriteCleanGateway();

  // Strict: corruption of the first data row fails the read.
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.row=corrupt*1").ok());
  EXPECT_EQ(io::ReadGatewayCsv(path).status().code(),
            StatusCode::kInvalidArgument);

  // Strict with a retry budget: a corrupt row is a parse error, so it is
  // not retried away.
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.row=corrupt*1").ok());
  io::ReadOptions retrying;
  retrying.max_retries = 3;
  io::IngestReport retry_report;
  EXPECT_EQ(io::ReadGatewayCsv(path, retrying, &retry_report).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(retry_report.retries, 0u);

  // Skip: the corrupted first row is quarantined; the surviving four rows
  // now start at minute 1.
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.row=corrupt*1").ok());
  io::ReadOptions skip;
  skip.policy = io::ErrorPolicy::kSkipAndReport;
  io::IngestReport report;
  const auto skipped = io::ReadGatewayCsv(path, skip, &report);
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();
  ASSERT_EQ(skipped->devices.size(), 1u);
  EXPECT_EQ(skipped->devices[0].incoming.size(), 4u);
  EXPECT_EQ(skipped->devices[0].incoming.start_minute(), 1);
  EXPECT_EQ(report.rows_malformed, 1u);

  // Skip, corrupting a row in the middle: the hole reads as an explicit
  // Missing value, not an invented one.
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.row=corrupt@3*1").ok());
  io::IngestReport middle_report;
  const auto middle = io::ReadGatewayCsv(path, skip, &middle_report);
  ASSERT_TRUE(middle.ok()) << middle.status().ToString();
  ASSERT_EQ(middle->devices.size(), 1u);
  const ts::TimeSeries& in = middle->devices[0].incoming;
  ASSERT_EQ(in.size(), 5u);
  EXPECT_TRUE(ts::TimeSeries::IsMissing(in[2]));
  EXPECT_DOUBLE_EQ(in[3], 4.0);
  EXPECT_EQ(middle_report.rows_malformed, 1u);
  std::remove(path.c_str());
}

// Schedule 3: the stream ends mid-file.
TEST_F(ChaosTest, TruncatedStreamStrictFailsSkipKeepsPrefix) {
  const std::string path = WriteCleanGateway();
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.row=truncate@4").ok());
  const auto strict = io::ReadGatewayCsv(path);
  EXPECT_EQ(strict.status().code(), StatusCode::kIoError);
  EXPECT_NE(strict.status().message().find("truncated stream"),
            std::string::npos);

  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.row=truncate@4").ok());
  io::ReadOptions skip;
  skip.policy = io::ErrorPolicy::kSkipAndReport;
  io::IngestReport report;
  const auto partial = io::ReadGatewayCsv(path, skip, &report);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  // Rows before the cut survive.
  EXPECT_EQ(partial->devices[0].incoming.size(), 3u);
  EXPECT_EQ(report.rows_parsed, 3u);
  EXPECT_TRUE(report.truncated);
  std::remove(path.c_str());
}

// Schedule 5: write-side injection — the writer reports the fault instead
// of leaving a silent half-written file behind.
TEST_F(ChaosTest, WriteFailpointPropagates) {
  ASSERT_TRUE(Failpoints::Global().Configure("io.csv.write=error*1").ok());
  const std::string path = testing::TempDir() + "/chaos_write.csv";
  simgen::GatewayTrace gw;
  simgen::DeviceTrace dev;
  dev.name = "cam";
  dev.incoming = ts::TimeSeries(0, 1, {1.0, 2.0, 3.0});
  dev.outgoing = ts::TimeSeries(0, 1, {1.0, 2.0, 3.0});
  gw.devices = {dev};
  const Status st = io::WriteGatewayCsv(path, gw);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // The budget is spent; the very next write goes through untouched.
  ASSERT_TRUE(io::WriteGatewayCsv(path, gw).ok());
  EXPECT_TRUE(io::ReadGatewayCsv(path).ok());
  std::remove(path.c_str());
}

/// A small gateway trace for the columnar-store schedules.
simgen::GatewayTrace ColumnarGateway() {
  const double miss = ts::TimeSeries::Missing();
  simgen::GatewayTrace gw;
  gw.id = 7;
  simgen::DeviceTrace dev;
  dev.name = "chaos-dev";
  dev.incoming = ts::TimeSeries(0, 1, {1.25, miss, 3.5, 4.0});
  dev.outgoing = ts::TimeSeries(0, 1, {0.25, miss, 0.5, miss});
  gw.devices = {dev};
  return gw;
}

// Schedule 6: a transient open error on the columnar reader. The failure
// names the site, spends the budget, and the very next open succeeds with
// bit-identical data.
TEST_F(ChaosTest, ColumnarOpenErrorPropagatesThenClears) {
  const std::string path = testing::TempDir() + "/chaos_col_open.homets";
  ASSERT_TRUE(storage::WriteGatewayHomets(path, ColumnarGateway()).ok());

  ASSERT_TRUE(Failpoints::Global().Configure("io.col.open=error*1").ok());
  const auto failed = storage::HometsReader::Open(path);
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_NE(failed.status().message().find("io.col.open"), std::string::npos);

  auto retried = storage::HometsReader::Open(path);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  const auto gw = retried->ReadGateway(0);
  ASSERT_TRUE(gw.ok()) << gw.status().ToString();
  ASSERT_EQ(gw->devices.size(), 1u);
  EXPECT_TRUE(SameBits(gw->devices[0].incoming[0], 1.25));
  std::remove(path.c_str());
}

// Schedule 7: one corrupted chunk payload. The CRC catches it and the read
// reports a clean IoError; once the budget is spent the same reader serves
// the data untouched — corruption injection never poisons the mmap.
TEST_F(ChaosTest, ColumnarChunkCorruptionCaughtByCrc) {
  const std::string path = testing::TempDir() + "/chaos_col_chunk.homets";
  ASSERT_TRUE(storage::WriteGatewayHomets(path, ColumnarGateway()).ok());
  auto reader = storage::HometsReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  ASSERT_TRUE(Failpoints::Global().Configure("io.col.chunk=corrupt*1").ok());
  const auto corrupted = reader->ReadGateway(0);
  EXPECT_EQ(corrupted.status().code(), StatusCode::kIoError);
  EXPECT_NE(corrupted.status().message().find("crc mismatch"),
            std::string::npos);

  const auto clean = reader->ReadGateway(0);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(SameBits(clean->devices[0].incoming[2], 3.5));
  std::remove(path.c_str());
}

// Schedule 8: write-side faults. An injected error during Append surfaces
// as a Status; an error during Finish leaves a torn file that the reader
// refuses with a clean Status instead of serving half a fleet.
TEST_F(ChaosTest, ColumnarWriteFaultsLeaveNoReadableHalfFile) {
  const std::string path = testing::TempDir() + "/chaos_col_write.homets";

  ASSERT_TRUE(Failpoints::Global().Configure("io.col.write=error*1").ok());
  auto writer = storage::HometsWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const Status append = writer->Append(ColumnarGateway());
  EXPECT_EQ(append.code(), StatusCode::kIoError);
  EXPECT_NE(append.message().find("io.col.write"), std::string::npos);

  // Second schedule: the Append goes through, the Finish is the casualty —
  // the footer never lands, so Open must report the file as torn. The
  // writer is scoped so its stream flushes the chunk bytes before we look.
  ASSERT_TRUE(Failpoints::Global().Configure("io.col.write=error@2*1").ok());
  {
    auto torn_writer = storage::HometsWriter::Create(path);
    ASSERT_TRUE(torn_writer.ok()) << torn_writer.status().ToString();
    ASSERT_TRUE(torn_writer->Append(ColumnarGateway()).ok());
    EXPECT_EQ(torn_writer->Finish().code(), StatusCode::kIoError);
  }
  const auto torn = storage::HometsReader::Open(path);
  EXPECT_EQ(torn.status().code(), StatusCode::kIoError);
  EXPECT_NE(torn.status().message().find("torn"), std::string::npos);

  // Budgets spent: the same path writes and reads back cleanly.
  ASSERT_TRUE(storage::WriteGatewayHomets(path, ColumnarGateway()).ok());
  EXPECT_TRUE(storage::HometsReader::Open(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace homets
