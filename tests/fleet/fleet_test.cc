// Fleet execution unit tests (DESIGN.md §15): shard planning, checkpoint
// encode/decode with torn/stale rejection, checkpoint-dir lock hygiene, and
// the deterministic merge — the report must be byte-identical across shard
// counts and thread counts — plus pinned reports, summaries and profiles.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/background.h"
#include "core/profiling.h"
#include "fleet/checkpoint.h"
#include "fleet/orchestrator.h"
#include "fleet/shard.h"
#include "io/csv.h"
#include "io/dataset.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "simgen/fleet.h"
#include "storage/homets_format.h"

namespace homets {
namespace {

using fleet::FleetInputs;
using fleet::GatewaySummary;
using fleet::ShardPlan;
using fleet::ShardResult;

// A fresh per-test directory under the gtest temp root; tests run as
// separate ctest processes, so names must not collide across binaries.
// TempDir() outlives the process, so scrub leftovers from a previous run —
// stale checkpoints or LOCK files would change resume/lock outcomes.
std::string MakeTestDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/fleet_" + name;
  std::filesystem::remove_all(dir);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

// A small synthetic fleet on disk as one out-of-core .homets file.
std::string WriteSmallFleet(const std::string& dir, int gateways = 6,
                            int weeks = 2) {
  simgen::SimConfig config;
  config.n_gateways = gateways;
  config.weeks = weeks;
  config.surveyed_gateways = std::min(config.surveyed_gateways, gateways);
  const std::string path = dir + "/fleet.homets";
  simgen::FleetGenerator generator(config);
  const auto stats = storage::WriteFleetHomets(generator, path);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return path;
}

ShardResult MakeShardResult() {
  ShardResult result;
  result.plan = ShardPlan{3, 4, 6};
  GatewaySummary a;
  a.gateway_id = 4;
  a.eligible = true;
  a.devices_observed = 5;
  a.dominant_count = 2;
  a.min_residents = 3;
  a.weekly_stationary = true;
  a.quietest_slot = 1;
  a.evening_share = 0.37519;
  a.tau_small = 3;
  a.tau_medium = 1;
  a.tau_large = 1;
  a.daily_windows = 14;
  a.daily_motifs = 4;
  GatewaySummary b;
  b.gateway_id = 5;
  b.eligible = false;
  b.quietest_slot = -1;
  result.gateways = {a, b};
  result.zipf_bins.assign(fleet::kZipfBins, 0);
  result.zipf_bins[17] = 42;
  result.zipf_bins[90] = 7;
  result.values_binned = 49;
  return result;
}

bool SameSummary(const GatewaySummary& x, const GatewaySummary& y) {
  return x.gateway_id == y.gateway_id && x.eligible == y.eligible &&
         x.devices_observed == y.devices_observed &&
         x.dominant_count == y.dominant_count &&
         x.min_residents == y.min_residents &&
         x.weekly_stationary == y.weekly_stationary &&
         x.quietest_slot == y.quietest_slot &&
         std::memcmp(&x.evening_share, &y.evening_share, sizeof(double)) ==
             0 &&
         x.tau_small == y.tau_small && x.tau_medium == y.tau_medium &&
         x.tau_large == y.tau_large && x.daily_windows == y.daily_windows &&
         x.daily_motifs == y.daily_motifs;
}

// --- planner ---------------------------------------------------------------

TEST(ShardPlannerTest, PartitionsContiguouslyAndNearEqually) {
  const auto plans = fleet::ShardPlanner::Plan(10, 3);
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 3u);
  // First n % s shards carry the remainder.
  EXPECT_EQ((*plans)[0].begin_gateway, 0);
  EXPECT_EQ((*plans)[0].end_gateway, 4);
  EXPECT_EQ((*plans)[1].begin_gateway, 4);
  EXPECT_EQ((*plans)[1].end_gateway, 7);
  EXPECT_EQ((*plans)[2].begin_gateway, 7);
  EXPECT_EQ((*plans)[2].end_gateway, 10);
  for (int s = 0; s < 3; ++s) EXPECT_EQ((*plans)[s].shard_index, s);
}

TEST(ShardPlannerTest, MoreShardsThanGatewaysYieldsEmptyShards) {
  const auto plans = fleet::ShardPlanner::Plan(2, 5);
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 5u);
  EXPECT_EQ((*plans)[0].end_gateway - (*plans)[0].begin_gateway, 1);
  EXPECT_EQ((*plans)[1].end_gateway - (*plans)[1].begin_gateway, 1);
  for (size_t s = 2; s < 5; ++s) {
    EXPECT_EQ((*plans)[s].begin_gateway, (*plans)[s].end_gateway);
  }
}

TEST(ShardPlannerTest, RejectsBadArguments) {
  EXPECT_EQ(fleet::ShardPlanner::Plan(10, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet::ShardPlanner::Plan(-1, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ZipfBinTest, MonotoneAndClamped) {
  EXPECT_EQ(fleet::ZipfBinIndex(1e-300), 0u);
  EXPECT_EQ(fleet::ZipfBinIndex(1e300), fleet::kZipfBins - 1);
  size_t last = 0;
  for (double v = 1e-6; v < 1e9; v *= 3.0) {
    const size_t bin = fleet::ZipfBinIndex(v);
    EXPECT_GE(bin, last);
    EXPECT_LT(bin, fleet::kZipfBins);
    last = bin;
  }
}

// --- checkpoint encode/decode ---------------------------------------------

TEST(CheckpointTest, RoundTripPreservesEveryFieldBitExactly) {
  const ShardResult original = MakeShardResult();
  const std::string bytes = fleet::EncodeShardCheckpoint(original, 0xF00Dull);
  const auto decoded = fleet::DecodeShardCheckpoint(bytes, 0xF00Dull);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->plan.shard_index, original.plan.shard_index);
  EXPECT_EQ(decoded->plan.begin_gateway, original.plan.begin_gateway);
  EXPECT_EQ(decoded->plan.end_gateway, original.plan.end_gateway);
  ASSERT_EQ(decoded->gateways.size(), original.gateways.size());
  for (size_t i = 0; i < original.gateways.size(); ++i) {
    EXPECT_TRUE(SameSummary(decoded->gateways[i], original.gateways[i]))
        << "gateway " << i;
  }
  EXPECT_EQ(decoded->zipf_bins, original.zipf_bins);
  EXPECT_EQ(decoded->values_binned, original.values_binned);
}

TEST(CheckpointTest, TornBytesAreRejectedAtEveryTruncationPoint) {
  const std::string bytes =
      fleet::EncodeShardCheckpoint(MakeShardResult(), 1ull);
  // Any strict prefix must decode as untrusted — never crash, never
  // half-parse.
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    const auto torn = fleet::DecodeShardCheckpoint(bytes.substr(0, cut), 1ull);
    EXPECT_EQ(torn.status().code(), StatusCode::kFailedPrecondition)
        << "cut at " << cut;
  }
}

TEST(CheckpointTest, SingleFlippedByteFailsTheCrc) {
  const std::string bytes =
      fleet::EncodeShardCheckpoint(MakeShardResult(), 1ull);
  for (size_t i = 8; i < bytes.size(); i += 11) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(static_cast<uint8_t>(corrupt[i]) ^ 0x40u);
    EXPECT_EQ(fleet::DecodeShardCheckpoint(corrupt, 1ull).status().code(),
              StatusCode::kFailedPrecondition)
        << "byte " << i;
  }
}

TEST(CheckpointTest, StaleFingerprintIsRejected) {
  const std::string bytes =
      fleet::EncodeShardCheckpoint(MakeShardResult(), 1ull);
  const auto stale = fleet::DecodeShardCheckpoint(bytes, 2ull);
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.status().message().find("stale"), std::string::npos);
}

TEST(CheckpointTest, FileRoundTripAndNotFound) {
  const std::string dir = MakeTestDir("ckpt_file");
  const ShardResult original = MakeShardResult();
  ASSERT_TRUE(fleet::WriteShardCheckpoint(dir, original, 9ull).ok());
  const auto loaded =
      fleet::ReadShardCheckpoint(dir, original.plan.shard_index, 9ull);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->values_binned, original.values_binned);
  EXPECT_EQ(fleet::ReadShardCheckpoint(dir, 1234, 9ull).status().code(),
            StatusCode::kNotFound);
  std::remove(fleet::ShardCheckpointPath(dir, 3).c_str());
}

TEST(CheckpointTest, FingerprintTracksInputsShardsAndFormat) {
  FleetInputs inputs;
  inputs.paths = {"a.homets", "b.homets"};
  inputs.bytes = {100, 200};
  inputs.mtime_ns = {1000, 2000};
  inputs.gateways = {{0, 0}, {1, 0}};
  const uint64_t base = fleet::FleetFingerprint(inputs, 4, "homets");
  EXPECT_EQ(base, fleet::FleetFingerprint(inputs, 4, "homets"));
  EXPECT_NE(base, fleet::FleetFingerprint(inputs, 5, "homets"));
  EXPECT_NE(base, fleet::FleetFingerprint(inputs, 4, "csv"));
  FleetInputs grown = inputs;
  grown.bytes[1] = 201;  // an input file changed size
  EXPECT_NE(base, fleet::FleetFingerprint(grown, 4, "homets"));
  FleetInputs touched = inputs;
  touched.mtime_ns[1] = 2001;  // same size, edited in place
  EXPECT_NE(base, fleet::FleetFingerprint(touched, 4, "homets"));
  FleetInputs reordered;
  reordered.paths = {"b.homets", "a.homets"};
  reordered.bytes = {200, 100};
  reordered.mtime_ns = {2000, 1000};
  reordered.gateways = inputs.gateways;
  EXPECT_NE(base, fleet::FleetFingerprint(reordered, 4, "homets"));
}

TEST(CheckpointTest, InPlaceEditWithSameSizeInvalidatesResume) {
  // The fingerprint must flip when an input is rewritten without changing
  // its byte count — otherwise --resume silently merges stale checkpoints.
  const std::string dir = MakeTestDir("mtime_edit");
  const std::string path = dir + "/input.bin";
  const std::string ckpt = dir + "/ckpt";
  ::mkdir(ckpt.c_str(), 0755);
  std::ofstream(path, std::ios::trunc) << "AAAAAAAA";
  struct stat st = {};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  FleetInputs before;
  before.paths = {path};
  before.bytes = {static_cast<uint64_t>(st.st_size)};
  before.mtime_ns = {static_cast<uint64_t>(st.st_mtim.tv_sec) *
                         1000000000ull +
                     static_cast<uint64_t>(st.st_mtim.tv_nsec)};
  before.gateways = {{0, 0}};
  const uint64_t fp_before = fleet::FleetFingerprint(before, 2, "homets");

  // Rewrite the same number of bytes, then bump mtime explicitly so the
  // test does not depend on filesystem timestamp granularity.
  std::ofstream(path, std::ios::trunc) << "BBBBBBBB";
  struct timespec times[2] = {{st.st_atim.tv_sec, st.st_atim.tv_nsec},
                              {st.st_mtim.tv_sec + 1, st.st_mtim.tv_nsec}};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
  struct stat st_after = {};
  ASSERT_EQ(::stat(path.c_str(), &st_after), 0);
  ASSERT_EQ(st_after.st_size, st.st_size);
  FleetInputs after = before;
  after.mtime_ns = {static_cast<uint64_t>(st_after.st_mtim.tv_sec) *
                        1000000000ull +
                    static_cast<uint64_t>(st_after.st_mtim.tv_nsec)};
  const uint64_t fp_after = fleet::FleetFingerprint(after, 2, "homets");
  EXPECT_NE(fp_before, fp_after);

  // A checkpoint written under the old fingerprint reads back as stale.
  ASSERT_TRUE(
      fleet::WriteShardCheckpoint(ckpt, MakeShardResult(), fp_before).ok());
  const auto reloaded = fleet::ReadShardCheckpoint(ckpt, 3, fp_after);
  EXPECT_EQ(reloaded.status().code(), StatusCode::kFailedPrecondition);
}

// --- checkpoint-dir lock ----------------------------------------------------

TEST(FleetLockTest, RefusesDirectoryOwnedByLiveRun) {
  const std::string dir = MakeTestDir("lock_live");
  const std::string path = WriteSmallFleet(dir);
  const std::string ckpt = dir + "/ckpt";
  const auto held = fleet::AcquireFleetLock(ckpt);
  ASSERT_TRUE(held.ok()) << held.status().ToString();

  // The lock belongs to the open file description, so this process's own
  // second acquire is refused like another run's.
  const auto second = fleet::AcquireFleetLock(ckpt);
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(second.status().message().find(ckpt), std::string::npos);

  fleet::FleetOptions options;
  options.n_shards = 2;
  options.threads = 1;
  options.checkpoint_dir = ckpt;
  const auto report = fleet::FleetOrchestrator({path}, options).Analyze();
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(std::filesystem::exists(fleet::ShardCheckpointPath(ckpt, 0)));
}

TEST(FleetLockTest, ReacquireRefusedUntilHolderIsDestroyed) {
  const std::string dir = MakeTestDir("lock_release");
  {
    auto held = fleet::AcquireFleetLock(dir);
    ASSERT_TRUE(held.ok()) << held.status().ToString();
    // Moving the lock keeps it held; the moved-from shell releases nothing.
    fleet::FleetLock lock;
    lock = std::move(held).value();
    EXPECT_EQ(fleet::AcquireFleetLock(dir).status().code(),
              StatusCode::kFailedPrecondition);
  }
  EXPECT_TRUE(fleet::AcquireFleetLock(dir).ok());
  // LOCK is never unlinked: every run locks the same inode.
  EXPECT_TRUE(std::filesystem::exists(fleet::FleetLockPath(dir)));
}

// Whatever a finished or killed run left in LOCK (the retired pid sentinel
// formats included) is just a file to lock: no holder, no refusal.
void ExpectLeftoverLockDoesNotBlock(const std::string& dir,
                                    const std::string& body) {
  std::ofstream(fleet::FleetLockPath(dir), std::ios::trunc) << body;
  const auto lock = fleet::AcquireFleetLock(dir);
  EXPECT_TRUE(lock.ok()) << body << ": " << lock.status().ToString();
}

TEST(FleetLockTest, ReclaimsLockOfDeadProcess) {
  const std::string dir = MakeTestDir("lock_dead");
  ExpectLeftoverLockDoesNotBlock(dir, "999999999 0000000000000000\n");
}

TEST(FleetLockTest, ReclaimsLockWithoutManifest) {
  // No manifest is written any more; a LOCK naming live pid 1, an empty
  // LOCK and one holding garbage are all free to take.
  const std::string dir = MakeTestDir("lock_orphan");
  for (const std::string body : {"1 0000000000000000\n", "", "not a lock"}) {
    ExpectLeftoverLockDoesNotBlock(dir, body);
  }
}

TEST(FleetLockTest, ReclaimsLockOfRecycledPid) {
  // pid 1 is alive, but liveness of a recorded pid no longer matters.
  const std::string dir = MakeTestDir("lock_recycled");
  ExpectLeftoverLockDoesNotBlock(dir,
                                 "1 0000000000000000 18446744073709551615\n");
}

TEST(FleetLockTest, RefusesDanglingSymlinkLock) {
  // O_NOFOLLOW: a LOCK symlink is refused, never followed, so the run
  // neither creates its target nor locks a file outside the directory.
  const std::string dir = MakeTestDir("lock_symlink");
  ASSERT_EQ(::symlink("target", fleet::FleetLockPath(dir).c_str()), 0);
  const auto refused = fleet::AcquireFleetLock(dir);
  EXPECT_EQ(refused.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(dir + "/target"));
}

// --- orchestrator determinism ---------------------------------------------

TEST(FleetOrchestratorTest, ReportIsIdenticalAcrossShardAndThreadCounts) {
  const std::string dir = MakeTestDir("merge");
  const std::string path = WriteSmallFleet(dir);
  std::string baseline;
  // 8 shards over 6 gateways leaves two shards empty.
  for (const int shards : {1, 3, 4, 8}) {
    for (const int threads : {1, 4}) {
      for (const bool checkpointed : {false, true}) {
        fleet::FleetOptions options;
        options.n_shards = shards;
        options.threads = threads;
        if (checkpointed) {
          options.checkpoint_dir = dir + "/ckpt_" + std::to_string(shards) +
                                   "_" + std::to_string(threads);
        }
        fleet::FleetOrchestrator orchestrator({path}, options);
        const auto report = orchestrator.Analyze();
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        EXPECT_FALSE(report->degraded);
        const std::string formatted = fleet::FormatFleetReport(*report);
        // Only the shard-count line may differ; the figures must not.
        const std::string figures =
            formatted.substr(formatted.find('\n') + 1);
        if (baseline.empty()) {
          baseline = figures;
        } else {
          EXPECT_EQ(figures, baseline)
              << "shards=" << shards << " threads=" << threads
              << " checkpointed=" << checkpointed;
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(FleetOrchestratorTest, ResumeLoadsCheckpointsWithoutRecomputation) {
  const std::string dir = MakeTestDir("resume_unit");
  const std::string path = WriteSmallFleet(dir);
  const std::string ckpt = dir + "/ckpt";
  fleet::FleetOptions options;
  options.n_shards = 3;
  options.checkpoint_dir = ckpt;
  fleet::FleetOrchestrator first({path}, options);
  const auto complete = first.Analyze();
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();
  EXPECT_EQ(complete->shards_resumed, 0u);

  options.resume = true;
  fleet::FleetOrchestrator second({path}, options);
  const auto resumed = second.Analyze();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->shards_resumed, 3u);
  EXPECT_EQ(resumed->checkpoints_discarded, 0u);
  EXPECT_EQ(fleet::FormatFleetReport(*resumed),
            fleet::FormatFleetReport(*complete));
  std::remove(path.c_str());
}

// At least 2 gateways per shard: every shard polls its deadline again after
// a whole gateway's work (milliseconds), so a 1 us budget always expires. A
// one-gateway shard polls only once, before any work, and that poll can
// land inside the 1 us.
TEST(FleetOrchestratorTest, ExpiredShardDeadlineQuarantinesEveryShard) {
  const std::string dir = MakeTestDir("deadline_expired");
  const std::string path = WriteSmallFleet(dir);
  fleet::FleetOptions options;
  options.n_shards = 2;
  options.max_attempts = 1;
  options.shard_deadline_ms = 0.001;
  fleet::FleetOrchestrator orchestrator({path}, options);
  const auto report = orchestrator.Analyze();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GE(report->n_gateways, 2 * options.n_shards);
  EXPECT_TRUE(report->degraded);
  EXPECT_TRUE(report->gateways.empty());
  ASSERT_EQ(report->quarantined.size(), 2u);
  for (int s = 0; s < 2; ++s) {
    const fleet::QuarantinedShard& q =
        report->quarantined[static_cast<size_t>(s)];
    EXPECT_EQ(q.shard_index, s);
    EXPECT_EQ(q.attempts, 1);
    EXPECT_EQ(q.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(q.status.message(),
              StrFormat("fleet: shard %d exceeded its 0 ms deadline", s));
  }
  std::remove(path.c_str());
}

TEST(FleetOrchestratorTest, GenerousShardDeadlineLeavesTheReportUnchanged) {
  const std::string dir = MakeTestDir("deadline_generous");
  const std::string path = WriteSmallFleet(dir);
  fleet::FleetOptions options;
  options.n_shards = 3;
  options.max_attempts = 1;
  fleet::FleetOrchestrator plain({path}, options);
  const auto baseline = plain.Analyze();
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  options.shard_deadline_ms = 60000.0;
  fleet::FleetOrchestrator bounded({path}, options);
  const auto report = bounded.Analyze();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->degraded);
  EXPECT_EQ(fleet::FormatFleetReport(*report),
            fleet::FormatFleetReport(*baseline));
  std::remove(path.c_str());
}

uint64_t GatewaysAnalyzedCounter() {
  return obs::MetricsRegistry::Global()
      .GetCounter(obs::kFleetGatewaysAnalyzed)
      ->Value();
}

// homets.fleet.gateways_analyzed counts the gateways of accepted shard
// results only. Gateway 1 is a header-only CSV, which no reader accepts, so
// shard 0 (gateways 0 and 1) analyzes gateway 0 on each of its 3 attempts,
// fails each time and is quarantined; only shard 1's gateway counts.
TEST(FleetOrchestratorTest, GatewaysAnalyzedSkipsRetriedThenQuarantinedShard) {
  const std::string dir = MakeTestDir("gateways_analyzed");
  simgen::SimConfig config;
  config.n_gateways = 3;
  config.weeks = 2;
  config.seed = 7;  // gateways 0 and 2 observe traffic
  const simgen::FleetGenerator generator(config);
  std::vector<std::string> paths;
  for (int g = 0; g < config.n_gateways; ++g) {
    paths.push_back(dir + "/gateway_" + std::to_string(g) + ".csv");
    ASSERT_TRUE(io::WriteGatewayCsv(paths.back(), generator.Generate(g)).ok());
  }
  std::ofstream(paths[1], std::ios::trunc)
      << "device,true_type,reported_type,minute,incoming,outgoing\n";
  fleet::FleetOptions options;
  options.n_shards = 2;
  options.threads = 2;
  options.max_attempts = 3;
  fleet::FleetOrchestrator orchestrator(paths, options);
  const uint64_t before = GatewaysAnalyzedCounter();
  const auto report = orchestrator.Analyze();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->quarantined.size(), 1u);
  EXPECT_EQ(report->quarantined[0].shard_index, 0);
  EXPECT_EQ(report->quarantined[0].attempts, 3);
  EXPECT_EQ(report->gateways.size(), 1u);
  EXPECT_EQ(GatewaysAnalyzedCounter() - before, report->gateways.size());
  std::filesystem::remove_all(dir);
}

// A shard whose checkpoint write fails is retried and counted once (the
// failpoint fails each shard's first write); a shard loaded from its
// checkpoint on resume is not counted at all.
TEST(FleetOrchestratorTest, GatewaysAnalyzedCountsEachAcceptedShardOnce) {
  const std::string dir = MakeTestDir("gateways_analyzed_ckpt");
  const std::string path = WriteSmallFleet(dir);
  fleet::FleetOptions options;
  options.n_shards = 3;
  options.checkpoint_dir = dir + "/ckpt";
  ASSERT_TRUE(Failpoints::Global().Configure("io.ckpt.write=error@1*1").ok());
  fleet::FleetOrchestrator first({path}, options);
  obs::Counter* const retries =
      obs::MetricsRegistry::Global().GetCounter(obs::kFleetShardRetries);
  const uint64_t retries_before = retries->Value();
  uint64_t before = GatewaysAnalyzedCounter();
  const auto report = first.Analyze();
  Failpoints::Global().Reset();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->degraded);
  EXPECT_EQ(retries->Value() - retries_before, 3u);
  EXPECT_EQ(report->gateways.size(), static_cast<size_t>(report->n_gateways));
  EXPECT_EQ(GatewaysAnalyzedCounter() - before, report->gateways.size());

  options.resume = true;
  fleet::FleetOrchestrator resumed({path}, options);
  before = GatewaysAnalyzedCounter();
  const auto again = resumed.Analyze();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->shards_resumed, 3u);
  EXPECT_EQ(GatewaysAnalyzedCounter() - before, 0u);
  std::filesystem::remove_all(dir);
}

TEST(FleetOrchestratorTest, EnumerateRejectsMissingAndEmptyInputs) {
  io::DatasetOptions options;
  EXPECT_EQ(fleet::EnumerateFleetInputs({}, options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet::EnumerateFleetInputs({"/nonexistent/x.homets"}, options)
                .status()
                .code(),
            StatusCode::kIoError);
}


// --- pinned outputs --------------------------------------------------------
// Expected values were produced by the implementation that estimated each
// device's τ three times per fleet run; the one-pass per-gateway dataflow
// must reproduce them byte for byte.

// A short-lived guest with 5 observed minutes per direction: too few for τ,
// so it enters the active aggregate unfiltered and gets no τ group.
simgen::DeviceTrace BriefGuest(const simgen::GatewayTrace& trace) {
  simgen::DeviceTrace guest;
  guest.name = "zz-guest";
  std::vector<double> in(30, ts::TimeSeries::Missing());
  std::vector<double> out(30, ts::TimeSeries::Missing());
  for (size_t i = 0; i < 5; ++i) {
    in[i * 5] = 3000.0 + 17000.0 * static_cast<double>(i);
    out[i * 5] = 400.0 + 900.0 * static_cast<double>(i);
  }
  const int64_t start = trace.devices.front().incoming.start_minute() + 1200;
  guest.incoming = ts::TimeSeries(start, 1, std::move(in));
  guest.outgoing = ts::TimeSeries(start, 1, std::move(out));
  return guest;
}

// Gateway `id` of a seeded 5-gateway, 2-week simgen fleet; gateway 1 also
// hosts BriefGuest.
simgen::GatewayTrace PinnedGateway(int id) {
  simgen::SimConfig config;
  config.n_gateways = 5;
  config.weeks = 2;
  config.seed = 4242;
  config.surveyed_gateways = 5;
  simgen::GatewayTrace trace = simgen::FleetGenerator(config).Generate(id);
  if (id == 1) trace.devices.push_back(BriefGuest(trace));
  return trace;
}

std::string WritePinnedFleet(const std::string& dir) {
  const std::string path = dir + "/pinned.homets";
  auto writer = storage::HometsWriter::Create(path);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (int id = 0; id < 5; ++id) {
    EXPECT_TRUE(writer->Append(PinnedGateway(id)).ok());
  }
  EXPECT_TRUE(writer->Finish().ok());
  return path;
}

// Every field, with evening_share's exact bits as a hex float.
std::string SummaryLine(const GatewaySummary& g) {
  return StrFormat(
      "%d eligible=%d devices=%u dominant=%u residents=%u stationary=%d "
      "quiet=%d evening=%a tau=%u/%u/%u daily=%u/%u\n",
      g.gateway_id, g.eligible, g.devices_observed, g.dominant_count,
      g.min_residents, g.weekly_stationary, g.quietest_slot, g.evening_share,
      g.tau_small, g.tau_medium, g.tau_large, g.daily_windows,
      g.daily_motifs);
}

TEST(PinnedOutputTest, FleetReportAndSummariesAreUnchanged) {
  const std::string dir = MakeTestDir("pinned_report");
  const std::string path = WritePinnedFleet(dir);
  fleet::FleetOptions options;
  options.n_shards = 3;
  options.threads = 2;
  fleet::FleetOrchestrator orchestrator({path}, options);
  const auto report = orchestrator.Analyze();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(fleet::FormatFleetReport(*report),
            "fleet report: 5 gateways in 3 shards\n"
            "gateways analyzed: 5 (5 eligible, 0 ineligible)\n"
            "zipf rank-frequency: exponent=1.5106 r2=0.5856 ranks=49 over 70948 values\n"
            "dominance histogram (eligible): 0:0 1:2 2:3 3+:0\n"
            "weekly stationary: 1 of 5 eligible\n"
            "min residents (sum over eligible): 8\n"
            "quietest 3h slot (mode): 1\n"
            "mean evening share (eligible): 0.506936\n"
            "tau groups: small=17 medium=3 large=0\n"
            "daily motifs: 15 from 67 windows\n"
            "quarantined shards: none\n");
  std::string summaries;
  for (const auto& g : report->gateways) summaries += SummaryLine(g);
  EXPECT_EQ(summaries,
            "0 eligible=1 devices=2 dominant=2 residents=2 stationary=0 quiet=4 evening=0x1.e7e12bac916p-1 tau=2/0/0 daily=14/3\n"
            "1 eligible=1 devices=6 dominant=2 residents=2 stationary=0 quiet=2 evening=0x1.5153d36389ff9p-2 tau=5/0/0 daily=14/5\n"
            "2 eligible=1 devices=3 dominant=1 residents=1 stationary=0 quiet=1 evening=0x1.15d62a563703dp-3 tau=2/1/0 daily=13/3\n"
            "3 eligible=1 devices=6 dominant=2 residents=2 stationary=1 quiet=1 evening=0x1.77a99aa05fcb1p-1 tau=5/1/0 daily=14/3\n"
            "4 eligible=1 devices=4 dominant=1 residents=1 stationary=0 quiet=1 evening=0x1.882eb6db8ac65p-2 tau=3/1/0 daily=12/1\n");
  std::remove(path.c_str());
}

TEST(PinnedOutputTest, ProfilesAreUnchanged) {
  std::string profiles;
  for (int id = 0; id < 3; ++id) {
    const auto profile = core::ProfileGateway(PinnedGateway(id));
    ASSERT_TRUE(profile.ok()) << profile.status().ToString();
    profiles += core::FormatProfile(*profile);
  }
  EXPECT_EQ(profiles,
            "gateway 0: 2 devices observed, >= 2 resident(s)\n"
            "  weekly pattern: changing week to week (weakest week pair cor = 0.50)\n"
            "  maintenance window: 12:00-15:00, evening traffic share 95%\n"
            "  dominant #1: device 0 (unlabeled), cor = 0.91\n"
            "  dominant #2: device 1 (portable), cor = 0.71\n"
            "  background: gw000-dev0 (unlabeled) -> small tau\n"
            "  background: gw000-dev1 (portable) -> small tau\n"
            "gateway 1: 6 devices observed, >= 2 resident(s)\n"
            "  weekly pattern: changing week to week (weakest week pair cor = 0.00)\n"
            "  maintenance window: 06:00-09:00, evening traffic share 33%\n"
            "  dominant #1: device 0 (unlabeled), cor = 0.79\n"
            "  dominant #2: device 1 (portable), cor = 0.75\n"
            "  background: gw001-dev0 (unlabeled) -> small tau\n"
            "  background: gw001-dev1 (portable) -> small tau\n"
            "  background: gw001-dev2 (portable) -> small tau\n"
            "  background: gw001-dev3 (unlabeled) -> small tau\n"
            "  background: gw001-dev4 (portable) -> small tau\n"
            "gateway 2: 3 devices observed, >= 1 resident(s)\n"
            "  weekly pattern: changing week to week (weakest week pair cor = 0.00)\n"
            "  maintenance window: 03:00-06:00, evening traffic share 14%\n"
            "  dominant #1: device 2 (fixed), cor = 0.91\n"
            "  background: gw002-dev0 (unlabeled) -> small tau\n"
            "  background: gw002-dev1 (portable) -> small tau\n"
            "  background: gw002-dev2 (fixed) -> medium tau\n");
}

TEST(PinnedOutputTest, IneligibleGatewayStillReportsDailyWindows) {
  // One device that never reports on a 3-day grid: ProfileGateway fails,
  // but the all-missing active aggregate still cuts into daily windows.
  simgen::GatewayTrace silent;
  silent.id = 99;
  simgen::DeviceTrace ghost;
  ghost.name = "ghost";
  ghost.incoming = ts::TimeSeries(
      0, 1, std::vector<double>(3 * ts::kMinutesPerDay,
                                ts::TimeSeries::Missing()));
  ghost.outgoing = ghost.incoming;
  silent.devices.push_back(ghost);
  core::GatewayWorkspace workspace;
  core::BuildGatewayPipeline(silent, &workspace);
  const core::GatewayPipeline& pipeline = workspace.pipeline;
  EXPECT_FALSE(
      core::ProfileGateway(silent, pipeline, {}, &workspace.dominance).ok());
  EXPECT_EQ(SummaryLine(fleet::SummarizeGateway(7, silent, pipeline, {},
                                                &workspace.dominance)),
            "7 eligible=0 devices=1 dominant=0 residents=0 stationary=0 quiet=0 evening=0x0p+0 tau=0/0/0 daily=3/0\n");
}

TEST(PinnedOutputTest, AnalyzeEstimatesEachDeviceBackgroundOnce) {
  const std::string dir = MakeTestDir("pinned_estimates");
  const std::string path = WritePinnedFleet(dir);
  obs::Counter* const estimated = obs::MetricsRegistry::Global().GetCounter(
      obs::kBackgroundThresholdsEstimated);
  // The reference amount: one ActiveAggregate per gateway.
  uint64_t before = estimated->Value();
  auto reader = io::DatasetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (size_t g = 0; g < reader->gateway_count(); ++g) {
    const auto trace = reader->ReadGateway(g);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    core::ActiveAggregate(*trace);
  }
  const uint64_t per_pass = estimated->Value() - before;
  EXPECT_EQ(per_pass, 40u);  // 20 devices x 2 directions

  fleet::FleetOptions options;
  options.n_shards = 3;
  fleet::FleetOrchestrator orchestrator({path}, options);
  before = estimated->Value();
  ASSERT_TRUE(orchestrator.Analyze().ok());
  EXPECT_EQ(estimated->Value() - before, per_pass);
  std::remove(path.c_str());
}

// ---- One gateway workspace reused across gateways --------------------------

// Gateways built to leave leftovers in a reused workspace, in the order the
// test reads them: a 6-week gateway, then a 2-week one with fewer devices,
// one whose first device has fewer than 8 outgoing observations (τ fails,
// so the active aggregate takes that device's total), one with a week-long
// gap in every device (a shorter dominance grid), and one with an all-zero
// device (constant series, so every coefficient is incomputable).
std::vector<simgen::GatewayTrace> LeftoverGateways() {
  simgen::SimConfig long_config;
  long_config.n_gateways = 2;
  long_config.weeks = 6;
  long_config.seed = 9090;
  long_config.surveyed_gateways = 2;
  simgen::SimConfig short_config = long_config;
  short_config.weeks = 2;
  const simgen::FleetGenerator long_fleet(long_config);
  const simgen::FleetGenerator short_fleet(short_config);
  std::vector<simgen::GatewayTrace> gateways;

  simgen::GatewayTrace many = long_fleet.Generate(0);
  while (many.devices.size() < 5) {
    simgen::DeviceTrace copy = many.devices.front();
    copy.name += "-twin" + std::to_string(many.devices.size());
    many.devices.push_back(std::move(copy));
  }
  gateways.push_back(many);

  simgen::GatewayTrace few = short_fleet.Generate(1);
  few.devices.resize(2);
  gateways.push_back(few);

  simgen::GatewayTrace short_direction = short_fleet.Generate(0);
  std::vector<double>& out = short_direction.devices[0].outgoing.mutable_values();
  size_t kept = 0;
  for (double& v : out) {
    if (ts::TimeSeries::IsMissing(v)) continue;
    if (++kept > 5) v = ts::TimeSeries::Missing();
  }
  gateways.push_back(short_direction);

  simgen::GatewayTrace gapped = long_fleet.Generate(1);
  for (simgen::DeviceTrace& device : gapped.devices) {
    for (ts::TimeSeries* series : {&device.incoming, &device.outgoing}) {
      for (size_t i = 2 * ts::kMinutesPerWeek;
           i < 3 * ts::kMinutesPerWeek && i < series->size(); ++i) {
        (*series)[i] = ts::TimeSeries::Missing();
      }
    }
  }
  gateways.push_back(gapped);

  simgen::GatewayTrace with_zero = short_fleet.Generate(1);
  simgen::DeviceTrace zero = with_zero.devices.front();
  zero.name = "all-zero";
  for (ts::TimeSeries* series : {&zero.incoming, &zero.outgoing}) {
    for (double& v : series->mutable_values()) v = 0.0;
  }
  with_zero.devices.push_back(std::move(zero));
  gateways.push_back(with_zero);
  return gateways;
}

bool SameSeriesBits(const ts::TimeSeries& a, const ts::TimeSeries& b) {
  return a.start_minute() == b.start_minute() &&
         a.step_minutes() == b.step_minutes() && a.size() == b.size() &&
         (a.empty() || std::memcmp(a.values().data(), b.values().data(),
                                   a.size() * sizeof(double)) == 0);
}

// Gateway `g` of `reader` analyzed in `*reused` must match a fresh read
// into a fresh workspace: the summary field for field, the pipeline's series
// bit for bit and the ranked dominant devices with their similarity bits.
void ExpectReuseMatchesFresh(io::DatasetReader* reader, size_t g,
                             core::GatewayWorkspace* reused) {
  SCOPED_TRACE(testing::Message() << "gateway " << g);
  ASSERT_TRUE(
      reader->ReadGateway(g, &reused->trace, &reused->spare_devices).ok());
  core::BuildGatewayPipeline(reused->trace, reused);
  const GatewaySummary got =
      fleet::SummarizeGateway(static_cast<int32_t>(g), reused->trace,
                              reused->pipeline, {}, &reused->dominance);

  const auto trace = reader->ReadGateway(g);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  core::GatewayWorkspace fresh;
  core::BuildGatewayPipeline(*trace, &fresh);
  const GatewaySummary want = fleet::SummarizeGateway(
      static_cast<int32_t>(g), *trace, fresh.pipeline, {}, &fresh.dominance);
  EXPECT_EQ(SummaryLine(got), SummaryLine(want));

  ASSERT_EQ(reused->trace.devices.size(), trace->devices.size());
  for (size_t d = 0; d < trace->devices.size(); ++d) {
    EXPECT_EQ(reused->trace.devices[d].name, trace->devices[d].name);
    EXPECT_TRUE(SameSeriesBits(reused->trace.devices[d].incoming,
                               trace->devices[d].incoming));
    EXPECT_TRUE(SameSeriesBits(reused->trace.devices[d].outgoing,
                               trace->devices[d].outgoing));
    ASSERT_EQ(reused->pipeline.backgrounds[d].ok(),
              fresh.pipeline.backgrounds[d].ok());
    if (fresh.pipeline.backgrounds[d].ok()) {
      EXPECT_EQ(reused->pipeline.backgrounds[d]->incoming.tau,
                fresh.pipeline.backgrounds[d]->incoming.tau);
      EXPECT_EQ(reused->pipeline.backgrounds[d]->outgoing.tau,
                fresh.pipeline.backgrounds[d]->outgoing.tau);
    }
  }
  EXPECT_TRUE(
      SameSeriesBits(reused->pipeline.aggregate, fresh.pipeline.aggregate));
  EXPECT_TRUE(SameSeriesBits(reused->pipeline.active, fresh.pipeline.active));

  const auto got_profile = core::ProfileGateway(
      reused->trace, reused->pipeline, {}, &reused->dominance);
  const auto want_profile = core::ProfileGateway(*trace);
  ASSERT_EQ(got_profile.ok(), want_profile.ok());
  if (!want_profile.ok()) return;
  ASSERT_EQ(got_profile->dominant_devices.size(),
            want_profile->dominant_devices.size());
  for (size_t r = 0; r < want_profile->dominant_devices.size(); ++r) {
    const core::DominantDevice& a = got_profile->dominant_devices[r];
    const core::DominantDevice& b = want_profile->dominant_devices[r];
    EXPECT_EQ(a.device_index, b.device_index);
    EXPECT_EQ(std::memcmp(&a.similarity, &b.similarity, sizeof(double)), 0);
  }
}

TEST(GatewayWorkspaceTest, ReusedWorkspaceMatchesAFreshOne) {
  const std::string dir = MakeTestDir("workspace_reuse");
  const std::string path = dir + "/leftovers.homets";
  {
    auto writer = storage::HometsWriter::Create(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const simgen::GatewayTrace& gateway : LeftoverGateways()) {
      ASSERT_TRUE(writer->Append(gateway).ok());
    }
    ASSERT_TRUE(writer->Finish().ok());
  }
  auto reader = io::DatasetReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_EQ(reader->gateway_count(), 5u);
  auto corrupt = io::DatasetReader::Open(std::string(HOMETS_IO_FIXTURES_DIR) +
                                         "/corrupt_chunk.homets");
  ASSERT_TRUE(corrupt.ok()) << corrupt.status().ToString();

  core::GatewayWorkspace reused;
  size_t previous_devices = 0;
  for (size_t g = 0; g < reader->gateway_count(); ++g) {
    ExpectReuseMatchesFresh(&*reader, g, &reused);
    const std::vector<Result<core::DeviceBackground>>& backgrounds =
        reused.pipeline.backgrounds;
    switch (g) {
      case 1:  // fewer devices and a shorter grid than gateway 0
        EXPECT_LT(reused.trace.devices.size(), previous_devices);
        break;
      case 2:  // one device takes the τ-failure fallback
        EXPECT_EQ(std::count_if(backgrounds.begin(), backgrounds.end(),
                                [](const auto& bg) { return !bg.ok(); }),
                  1);
        break;
      case 4:  // the all-zero device is there and its τ is 0
        EXPECT_TRUE(std::any_of(
            backgrounds.begin(), backgrounds.end(),
            [](const auto& bg) { return bg.ok() && bg->incoming.tau == 0.0; }));
        break;
    }
    previous_devices = reused.trace.devices.size();
  }
  // A decode that fails on its first chunk, then one that fails halfway
  // through the 6-week gateway: each leaves the trace partly rewritten.
  EXPECT_EQ(corrupt->ReadGateway(0, &reused.trace, &reused.spare_devices)
                .code(),
            StatusCode::kIoError);
  ASSERT_TRUE(Failpoints::Global().Configure("io.col.chunk=corrupt*1@40").ok());
  EXPECT_EQ(
      reader->ReadGateway(0, &reused.trace, &reused.spare_devices).code(),
      StatusCode::kIoError);
  Failpoints::Global().Reset();
  for (const size_t g : {1u, 0u, 4u, 2u, 3u}) {
    ExpectReuseMatchesFresh(&*reader, g, &reused);
  }

  // The shard runner: one workspace across every shard of the file gives
  // the shards a workspace of their own would.
  fleet::FleetOptions options;
  const auto inputs = fleet::EnumerateFleetInputs({path}, options.dataset);
  ASSERT_TRUE(inputs.ok()) << inputs.status().ToString();
  const auto plans = fleet::ShardPlanner::Plan(5, 3);
  ASSERT_TRUE(plans.ok());
  const fleet::ShardRunner runner(&*inputs, options.dataset);
  for (const ShardPlan& plan : *plans) {
    const auto shared = runner.RunShard(plan, nullptr, 1, &reused);
    const auto own = runner.RunShard(plan, nullptr);
    ASSERT_TRUE(shared.ok() && own.ok());
    ASSERT_EQ(shared->gateways.size(), own->gateways.size());
    for (size_t i = 0; i < own->gateways.size(); ++i) {
      EXPECT_EQ(SummaryLine(shared->gateways[i]),
                SummaryLine(own->gateways[i]));
    }
    EXPECT_EQ(shared->zipf_bins, own->zipf_bins);
    EXPECT_EQ(shared->values_binned, own->values_binned);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace homets
