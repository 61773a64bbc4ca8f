// Telemetry under fault injection (`ctest -L chaos`): the run manifest must
// land on disk with a clean failure Status whenever a failpoint kills a
// pipeline stage, and the structured logger must narrate the faults without
// disturbing the failure path. This is the library-level half of the
// manifest-on-failure acceptance; tools/cli_telemetry_test.sh drives the
// same contract through the homets_cli binary.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/json.h"
#include "common/status.h"
#include "core/stationarity.h"
#include "obs/log.h"
#include "obs/report.h"
#include "simgen/types.h"
#include "storage/homets_format.h"
#include "ts/time_series.h"

namespace homets {
namespace {

class TelemetryChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Global().Reset(); }
  void TearDown() override { Failpoints::Global().Reset(); }

  static JsonValue ReadManifest(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    auto doc = ParseJson(text.str());
    EXPECT_TRUE(doc.ok()) << text.str();
    return doc.ok() ? *doc : JsonValue();
  }
};

// With every engine block failed, Definition 2 has no evidence and the
// stationarity check fails; the manifest written afterwards must carry the
// failed stage and the Status verbatim.
TEST_F(TelemetryChaosTest, EngineFaultLandsInManifestAsFailure) {
  ASSERT_TRUE(Failpoints::Global().Configure("engine.pair_block=fail").ok());

  obs::RunManifestBuilder manifest;
  manifest.SetTool("telemetry_chaos");
  manifest.SetFailpoints("engine.pair_block=fail", 0);

  std::vector<ts::TimeSeries> windows;
  for (int w = 0; w < 12; ++w) {
    std::vector<double> values;
    for (int i = 0; i < 64; ++i) {
      values.push_back(static_cast<double>((w * 7 + i * 13) % 29));
    }
    windows.emplace_back(0, 1, values);
  }
  Status failed = Status::OK();
  {
    obs::StageTimer stage("stationarity", &manifest);
    const auto result = core::CheckStrongStationarity(windows);
    ASSERT_FALSE(result.ok());
    failed = result.status();
    manifest.MarkFailed("stationarity", failed);
  }
  EXPECT_EQ(failed.code(), StatusCode::kComputeError);
  manifest.SetExitCode(10 + static_cast<int>(failed.code()));

  const std::string path = testing::TempDir() + "/chaos_manifest_engine.json";
  ASSERT_TRUE(manifest.WriteJson(path).ok());
  const JsonValue doc = ReadManifest(path);
  EXPECT_EQ(doc.StringOr("outcome", ""), "failure");
  EXPECT_EQ(doc.StringOr("failed_stage", ""), "stationarity");
  const JsonValue* status = doc.Find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->StringOr("code", ""), "ComputeError");
  EXPECT_EQ(status->StringOr("message", ""), failed.message());
  EXPECT_EQ(status->StringOr("message", ""),
            "CheckStrongStationarity: all window pairs failed");
  // The aborted stage still appears, with its wall time, in `stages`.
  const JsonValue* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->array_items().size(), 1u);
  EXPECT_EQ(stages->array_items()[0].StringOr("stage", ""), "stationarity");
  std::remove(path.c_str());
}

// A corrupted columnar chunk: the storage layer logs the CRC mismatch
// through the structured logger and the manifest records the IoError.
TEST_F(TelemetryChaosTest, ColumnarChunkFaultLandsInManifestAndLog) {
  // Write a small gateway file first, with no faults armed.
  simgen::GatewayTrace gw;
  gw.id = 0;
  simgen::DeviceTrace dev;
  dev.name = "gw000-dev0";
  dev.incoming = ts::TimeSeries(0, 1, {1.0, 2.0, 3.0, 4.0});
  dev.outgoing = ts::TimeSeries(0, 1, {4.0, 3.0, 2.0, 1.0});
  gw.devices.push_back(dev);
  const std::string path = testing::TempDir() + "/chaos_telemetry.homets";
  ASSERT_TRUE(storage::WriteGatewayHomets(path, gw).ok());

  const std::string log_path = testing::TempDir() + "/chaos_telemetry.jsonl";
  obs::LoggerOptions log_options;
  log_options.min_level = obs::LogLevel::kDebug;
  log_options.stderr_level = obs::LogLevel::kOff;
  log_options.file_path = log_path;
  ASSERT_TRUE(obs::Logger::Global().Configure(log_options).ok());

  ASSERT_TRUE(Failpoints::Global().Configure("io.col.chunk=corrupt*1").ok());
  obs::RunManifestBuilder manifest;
  manifest.SetTool("telemetry_chaos");
  Status failed = Status::OK();
  {
    obs::StageTimer stage("read_chunks", &manifest);
    const auto reader = storage::HometsReader::Open(path);
    if (reader.ok()) {
      const auto read = reader->ReadGateway(0);
      ASSERT_FALSE(read.ok());
      failed = read.status();
    } else {
      failed = reader.status();
    }
    manifest.MarkFailed("read_chunks", failed);
  }

  const std::string manifest_path =
      testing::TempDir() + "/chaos_manifest_col.json";
  ASSERT_TRUE(manifest.WriteJson(manifest_path).ok());
  const JsonValue doc = ReadManifest(manifest_path);
  EXPECT_EQ(doc.StringOr("outcome", ""), "failure");
  EXPECT_EQ(doc.StringOr("failed_stage", ""), "read_chunks");
  const JsonValue* status = doc.Find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->StringOr("code", ""), "IoError");

  // Reset the global logger to defaults (which drains it) before leaving
  // the test, then check the JSONL narration that landed while the fault
  // was armed.
  ASSERT_TRUE(obs::Logger::Global().Configure(obs::LoggerOptions{}).ok());
  std::ifstream log_in(log_path);
  std::string line;
  bool every_line_parses = true;
  size_t lines = 0;
  while (std::getline(log_in, line)) {
    ++lines;
    if (!ParseJson(line).ok()) every_line_parses = false;
  }
  EXPECT_GT(lines, 0u);
  EXPECT_TRUE(every_line_parses);
  std::remove(path.c_str());
  std::remove(log_path.c_str());
  std::remove(manifest_path.c_str());
}

// Cancellation-style failpoint statuses map to the `cancelled` outcome so
// an orchestrator can tell a killed shard from a broken one.
TEST_F(TelemetryChaosTest, DeadlineFailureReadsAsCancelled) {
  obs::RunManifestBuilder manifest;
  manifest.MarkFailed("engine",
                      Status::DeadlineExceeded("engine exceeded deadline"));
  const std::string path = testing::TempDir() + "/chaos_manifest_cancel.json";
  ASSERT_TRUE(manifest.WriteJson(path).ok());
  const JsonValue doc = ReadManifest(path);
  EXPECT_EQ(doc.StringOr("outcome", ""), "cancelled");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace homets
