#include "obs/report.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace homets::obs {
namespace {

JsonValue Parse(const RunManifestBuilder& builder) {
  const std::string json = builder.ToJson();
  auto doc = ParseJson(json);
  EXPECT_TRUE(doc.ok()) << json;
  return doc.ok() ? *doc : JsonValue();
}

TEST(RunManifestTest, MinimalManifestCarriesSchemaAndSuccess) {
  RunManifestBuilder builder;
  builder.SetTool("homets_cli");
  builder.SetCommand("homets_cli profile x.csv");
  const JsonValue doc = Parse(builder);
  EXPECT_EQ(doc.NumberOr("schema_version", -1),
            RunManifestBuilder::kSchemaVersion);
  EXPECT_EQ(doc.StringOr("tool", ""), "homets_cli");
  EXPECT_EQ(doc.StringOr("outcome", ""), "success");
  EXPECT_EQ(doc.NumberOr("exit_code", -1), 0);
  const JsonValue* status = doc.Find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->StringOr("code", ""), "OK");
  EXPECT_GE(doc.NumberOr("wall_seconds", -1.0), 0.0);
  // Optional sections stay absent until recorded.
  EXPECT_EQ(doc.Find("failpoints"), nullptr);
  EXPECT_EQ(doc.Find("ingest"), nullptr);
  EXPECT_EQ(doc.Find("failed_stage"), nullptr);
}

TEST(RunManifestTest, ConfigInputsAndCountersRoundTrip) {
  RunManifestBuilder builder;
  builder.SetConfig("period", "daily");
  builder.SetConfig("period", "weekly");  // overwrite, not duplicate
  builder.SetConfig("read-policy", "skip");
  builder.AddInput("a.csv", "csv", 123);
  builder.AddInput("b.homets", "homets", 456);
  builder.SetFailpoints("io.csv.open=error*2", 7);
  builder.SetThreads(8, 4);
  builder.SetReadPolicy("skip", 2);
  ManifestIngestCounters counters;
  counters.rows_parsed = 100;
  counters.rows_malformed = 3;
  counters.files_truncated = 1;
  builder.RecordIngest(counters);
  builder.RecordIngest(counters);  // accumulates across files

  const JsonValue doc = Parse(builder);
  const JsonValue* config = doc.Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->StringOr("period", ""), "weekly");
  ASSERT_EQ(config->object_items().size(), 2u);

  const JsonValue* inputs = doc.Find("inputs");
  ASSERT_NE(inputs, nullptr);
  ASSERT_EQ(inputs->array_items().size(), 2u);
  EXPECT_EQ(inputs->array_items()[0].StringOr("path", ""), "a.csv");
  EXPECT_EQ(inputs->array_items()[1].StringOr("format", ""), "homets");
  EXPECT_EQ(inputs->array_items()[1].NumberOr("bytes", -1), 456);

  const JsonValue* failpoints = doc.Find("failpoints");
  ASSERT_NE(failpoints, nullptr);
  EXPECT_EQ(failpoints->StringOr("spec", ""), "io.csv.open=error*2");
  EXPECT_EQ(failpoints->NumberOr("seed", -1), 7);

  const JsonValue* threads = doc.Find("threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(threads->NumberOr("hardware", -1), 8);
  EXPECT_EQ(threads->NumberOr("used", -1), 4);

  const JsonValue* ingest = doc.Find("ingest");
  ASSERT_NE(ingest, nullptr);
  EXPECT_EQ(ingest->NumberOr("rows_parsed", -1), 200);
  EXPECT_EQ(ingest->NumberOr("rows_malformed", -1), 6);
  EXPECT_EQ(ingest->NumberOr("files_truncated", -1), 2);
  // Schema v4 dropped the two counters only the series reader could set;
  // v5 renamed files_quarantined, which counted truncated files.
  EXPECT_EQ(ingest->Find("rows_out_of_order"), nullptr);
  EXPECT_EQ(ingest->Find("gaps_repaired"), nullptr);
  EXPECT_EQ(ingest->Find("files_quarantined"), nullptr);
}

// Stage entries mirror the BENCH_pipeline.json shape: name, seconds, units,
// and a map of metric deltas.
TEST(RunManifestTest, StagesMirrorBenchShape) {
  RunManifestBuilder builder;
  StageRecord read;
  read.stage = "read_traces";
  read.seconds = 1.5;
  read.units = 28;
  read.metric_deltas = {{"homets.io.rows_parsed", 1000}};
  builder.AddStage(read);
  StageRecord mine;
  mine.stage = "mine_motifs";
  mine.seconds = 0.25;
  mine.units = 28;
  builder.AddStage(mine);
  const JsonValue doc = Parse(builder);
  const JsonValue* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->array_items().size(), 2u);
  const JsonValue& first = stages->array_items()[0];
  EXPECT_EQ(first.StringOr("stage", ""), "read_traces");
  EXPECT_DOUBLE_EQ(first.NumberOr("seconds", -1), 1.5);
  EXPECT_EQ(first.NumberOr("units", -1), 28);
  const JsonValue* metrics = first.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->NumberOr("homets.io.rows_parsed", -1), 1000);
  EXPECT_NE(first.Find("resources"), nullptr);
}

TEST(RunManifestTest, FirstFailureWinsAndMapsToFailureOutcome) {
  RunManifestBuilder builder;
  builder.MarkFailed("read_traces", Status::IoError("disk gone"));
  builder.MarkFailed("mine_motifs", Status::ComputeError("fallout"));
  builder.SetExitCode(17);
  const JsonValue doc = Parse(builder);
  EXPECT_EQ(doc.StringOr("outcome", ""), "failure");
  EXPECT_EQ(doc.StringOr("failed_stage", ""), "read_traces");
  const JsonValue* status = doc.Find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->StringOr("code", ""), "IoError");
  EXPECT_EQ(status->StringOr("message", ""), "disk gone");
  EXPECT_EQ(doc.NumberOr("exit_code", -1), 17);
}

TEST(RunManifestTest, CancellationMapsToCancelledOutcome) {
  RunManifestBuilder cancelled;
  cancelled.MarkFailed("engine", Status::Cancelled("stop requested"));
  EXPECT_EQ(Parse(cancelled).StringOr("outcome", ""), "cancelled");

  RunManifestBuilder deadline;
  deadline.MarkFailed("engine", Status::DeadlineExceeded("too slow"));
  EXPECT_EQ(Parse(deadline).StringOr("outcome", ""), "cancelled");
}

TEST(RunManifestTest, WriteJsonLandsOnDiskAndFailsCleanly) {
  RunManifestBuilder builder;
  builder.SetTool("t");
  const std::string path = testing::TempDir() + "/manifest_test.json";
  ASSERT_TRUE(builder.WriteJson(path).ok());
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_TRUE(ParseJson(text.str()).ok());
  std::remove(path.c_str());

  const Status bad =
      builder.WriteJson(testing::TempDir() + "/no/such/dir/m.json");
  EXPECT_EQ(bad.code(), StatusCode::kIoError);
}

// StageTimer against a private registry double-checks the delta math; a
// null builder must be a free no-op.
TEST(RunManifestTest, StageTimerRecordsPositiveCounterDeltas) {
  auto& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("homets.test.report_stage_units");
  RunManifestBuilder builder;
  {
    StageTimer timer("timed", &builder);
    counter->Increment(5);
    timer.set_units(2);
  }
  {
    RunManifestBuilder* no_manifest = nullptr;
    StageTimer noop("ignored", no_manifest);
    counter->Increment(1);
  }
  const JsonValue doc = Parse(builder);
  const JsonValue* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->array_items().size(), 1u);
  const JsonValue& stage = stages->array_items()[0];
  EXPECT_EQ(stage.StringOr("stage", ""), "timed");
  EXPECT_EQ(stage.NumberOr("units", -1), 2);
  const JsonValue* metrics = stage.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->NumberOr("homets.test.report_stage_units", -1), 5);
}

TEST(RunManifestTest, CaptureRusageReportsLiveFigures) {
  const StageResources usage = CaptureRusage();
  EXPECT_GT(usage.max_rss_bytes, 0u);
  EXPECT_GE(usage.cpu_seconds(), 0.0);
}

TEST(RunManifestTest, StageTimerRecordsResourcesIntoTheManifest) {
  RunManifestBuilder builder;
  builder.SetThreads(1, 1);
  {
    StageTimer timer("burn", &builder);
    // Burn enough CPU for getrusage ticks (1-4 ms) to resolve.
    volatile double x = 1.0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
    while (std::chrono::steady_clock::now() < deadline) x = x * 1.0000001;
    timer.set_units(7);
  }
  const JsonValue doc = Parse(builder);
  const JsonValue* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->array_items().size(), 1u);
  EXPECT_EQ(stages->array_items()[0].StringOr("stage", ""), "burn");
  const JsonValue* resources = stages->array_items()[0].Find("resources");
  ASSERT_NE(resources, nullptr);
  for (const char* key :
       {"cpu_user_seconds", "cpu_sys_seconds", "cpu_seconds", "max_rss_bytes",
        "minor_faults", "major_faults", "parallel_efficiency"}) {
    EXPECT_NE(resources->Find(key), nullptr) << "missing " << key;
  }
  EXPECT_EQ(resources->Find("alloc_bytes"), nullptr);
}

// The one stage clock opens exactly one span, named after the stage, with
// or without a manifest; code inside the stage sees that span's id.
TEST(StageTimerTest, OpensOneSpanNamedAfterTheStage) {
  TraceSession session;
  InstallGlobalTraceSession(&session);
  RunManifestBuilder builder;
  uint64_t inside_timed = 0;
  uint64_t inside_span_only = 0;
  {
    StageTimer timer("mine_motifs", &builder);
    inside_timed = CurrentSpanId();
  }
  {
    RunManifestBuilder* no_manifest = nullptr;
    StageTimer timer("read_traces", no_manifest);
    inside_span_only = CurrentSpanId();
  }
  InstallGlobalTraceSession(nullptr);
  const std::vector<TraceEvent> events = session.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "mine_motifs");
  EXPECT_NE(inside_timed, 0u);
  EXPECT_EQ(events[0].span_id, inside_timed);
  EXPECT_EQ(events[1].name, "read_traces");
  EXPECT_EQ(events[1].span_id, inside_span_only);
  EXPECT_EQ(CurrentSpanId(), 0u);
}

// Spins until the calling thread has spent `ms` more milliseconds of CPU.
void Burn(int ms) {
  const auto thread_cpu_ms = [] {
    timespec t = {};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_nsec) / 1e6;
  };
  volatile double x = 1.0;
  const double until = thread_cpu_ms() + ms;
  while (thread_cpu_ms() < until) x = x * 1.0000001;
}

// A nested stage's time counts once: the outer stage's self figures leave
// the inner stage out, so the two self figures add up to the outer total.
TEST(StageCollectorTest, NestedStageCountsOnceInSelfTime) {
  RunManifestBuilder collector;
  InstallStageCollector(&collector);
  {
    StageTimer outer("outer");
    Burn(5);
    StageTimer inner("inner");
    Burn(10);
  }
  InstallStageCollector(nullptr);
  const std::map<std::string, StageSum> sums = collector.StageSums();
  ASSERT_EQ(sums.size(), 2u);
  const StageSum& outer = sums.at("outer");
  const StageSum& inner = sums.at("inner");
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.calls, 1u);
  EXPECT_GE(inner.seconds, 0.010);
  EXPECT_DOUBLE_EQ(inner.self_seconds, inner.seconds);
  EXPECT_GE(outer.self_seconds, 0.005);
  EXPECT_NEAR(outer.self_seconds + inner.self_seconds, outer.seconds, 1e-9);
  // The spins are CPU: each is in its own stage's self CPU, and the inner
  // 10 ms are not in the outer's, whose own spin is 5 ms.
  EXPECT_GE(inner.self.cpu_seconds(), 0.010);
  EXPECT_GE(outer.self.cpu_seconds(), 0.005);
  EXPECT_LT(outer.self.cpu_seconds(), 0.010);
}

// Nesting is per thread: a stage on a worker thread is a root there, so the
// stage that waits for the worker keeps its whole wall time as self time.
TEST(StageCollectorTest, StagesOnOtherThreadsAreNotNested) {
  RunManifestBuilder collector;
  InstallStageCollector(&collector);
  {
    StageTimer waiting("waiting");
    std::thread worker([] {
      StageTimer work("work");
      Burn(10);
    });
    worker.join();
  }
  InstallStageCollector(nullptr);
  const std::map<std::string, StageSum> sums = collector.StageSums();
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_DOUBLE_EQ(sums.at("waiting").self_seconds, sums.at("waiting").seconds);
  EXPECT_GE(sums.at("work").self.cpu_seconds(), 0.010);
  // The worker's CPU is its own: the waiting thread barely ran.
  EXPECT_LT(sums.at("waiting").self.cpu_seconds(), 0.010);
}

// Library stages land in "stage_sums", one row per name; a stage with a
// manifest is a manifest stage only.
TEST(RunManifestTest, PrintsLibraryStageSums) {
  RunManifestBuilder builder;
  InstallStageCollector(&builder);
  {
    StageTimer cli("analyze", &builder);
    for (int i = 0; i < 3; ++i) StageTimer library("dominance.find");
  }
  InstallStageCollector(nullptr);
  const JsonValue doc = Parse(builder);
  const JsonValue* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->array_items().size(), 1u);
  const JsonValue* sums = doc.Find("stage_sums");
  ASSERT_NE(sums, nullptr);
  ASSERT_EQ(sums->array_items().size(), 1u);
  const JsonValue& row = sums->array_items()[0];
  EXPECT_EQ(row.StringOr("stage", ""), "dominance.find");
  EXPECT_EQ(row.NumberOr("calls", -1), 3);
  for (const char* key :
       {"seconds", "self_seconds", "self_cpu_seconds", "self_minor_faults"}) {
    EXPECT_NE(row.Find(key), nullptr) << "missing " << key;
  }
  // A self difference of getrusage's tick-split system time is not the
  // stage's system time, so the row carries only the total.
  EXPECT_EQ(row.Find("self_cpu_sys_seconds"), nullptr);
  EXPECT_EQ(Parse(RunManifestBuilder()).Find("stage_sums"), nullptr);
}

// parallel_efficiency needs 10 ms of wall time (getrusage ticks are 1-4 ms)
// and a thread count; the manifest prints exactly what the record says.
TEST(StageRecordTest, ParallelEfficiencyHasATenMillisecondFloor) {
  StageRecord record;
  record.resources.cpu_user_seconds = 0.006;
  record.resources.cpu_sys_seconds = 0.002;
  record.seconds = 0.0099;
  EXPECT_FALSE(record.parallel_efficiency(4).has_value());
  record.seconds = 0.01;
  ASSERT_TRUE(record.parallel_efficiency(4).has_value());
  EXPECT_DOUBLE_EQ(*record.parallel_efficiency(4), 0.008 / (0.01 * 4));
  EXPECT_FALSE(record.parallel_efficiency(0).has_value());

  RunManifestBuilder builder;
  builder.SetThreads(4, 4);
  record.stage = "long";
  builder.AddStage(record);
  record.stage = "short";
  record.seconds = 0.0099;
  builder.AddStage(record);
  const JsonValue doc = Parse(builder);
  const JsonValue* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->array_items().size(), 2u);
  const JsonValue* long_resources = stages->array_items()[0].Find("resources");
  const JsonValue* short_resources =
      stages->array_items()[1].Find("resources");
  ASSERT_NE(long_resources, nullptr);
  ASSERT_NE(short_resources, nullptr);
  EXPECT_DOUBLE_EQ(long_resources->NumberOr("parallel_efficiency", -1), 0.2);
  EXPECT_EQ(short_resources->Find("parallel_efficiency"), nullptr);
}

}  // namespace
}  // namespace homets::obs
