// The library's stage sums over a whole fleet run (`ctest -L threads`, run
// under ThreadSanitizer by tools/run_all_gates.sh): every stage closes into
// the one installed collector from whichever worker thread ran it.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "fleet/orchestrator.h"
#include "obs/report.h"
#include "simgen/fleet.h"
#include "storage/homets_format.h"

namespace homets {
namespace {

struct FleetRun {
  size_t gateways = 0;
  double cpu_seconds = 0.0;  ///< the process's, over the whole Analyze
  std::map<std::string, obs::StageSum> sums;
};

FleetRun AnalyzeWithCollector(const std::string& fleet_path, int threads,
                              int shards = 4) {
  fleet::FleetOptions options;
  options.n_shards = shards;
  options.threads = threads;
  fleet::FleetOrchestrator orchestrator({fleet_path}, options);
  obs::RunManifestBuilder collector;
  obs::InstallStageCollector(&collector);
  const obs::StageResources before = obs::CaptureRusage();
  const auto report = orchestrator.Analyze();
  const obs::StageResources after = obs::CaptureRusage();
  obs::InstallStageCollector(nullptr);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  FleetRun run;
  run.gateways = report.ok() ? report->gateways.size() : 0;
  run.cpu_seconds = after.Since(before).cpu_seconds();
  run.sums = collector.StageSums();
  return run;
}

// The 6-gateway, 2-week simgen fleet both tests analyze, as .homets.
std::string WriteFleet(const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string fleet_path = dir + "/fleet.homets";
  simgen::SimConfig config;
  config.n_gateways = 6;
  config.weeks = 2;
  config.surveyed_gateways =
      std::min(config.surveyed_gateways, config.n_gateways);
  const simgen::FleetGenerator generator(config);
  EXPECT_TRUE(storage::WriteFleetHomets(generator, fleet_path).ok());
  return fleet_path;
}

// Sanitizer runtimes own the allocator and quarantine freed memory, so
// page faults there say nothing about the program's reuse of its buffers.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HOMETS_TEST_COUNT_FAULTS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HOMETS_TEST_COUNT_FAULTS 0
#endif
#endif
#ifndef HOMETS_TEST_COUNT_FAULTS
#define HOMETS_TEST_COUNT_FAULTS 1
#endif

// One worker reuses one gateway workspace for the whole fleet, so decode,
// τ and dominance fault in their week-long buffers for the first gateways
// only. Measured from a clean heap (this test's own process under ctest;
// it is also the first test of the file): 1 140 self minor faults over the
// fleet with the reused workspace, 2 977 with fresh buffers per gateway
// (the code before the workspace).
constexpr uint64_t kFaultBound = 1800;

TEST(FleetStageSumsTest, OneWorkerFaultsInItsBuffersOnce) {
#if HOMETS_TEST_COUNT_FAULTS
  const std::string dir = testing::TempDir() + "/fleet_stage_faults";
  // The fleet is written by a child process: generating it here would
  // leave this process's allocator holding freed pages, and Analyze would
  // start from a heap unlike a fresh process's.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    WriteFleet(dir);
    std::_Exit(testing::Test::HasFailure() ? 1 : 0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  const std::string fleet_path = dir + "/fleet.homets";
  const FleetRun run = AnalyzeWithCollector(fleet_path, 1, 1);
  ASSERT_GT(run.gateways, 0u);
  uint64_t faults = 0;
  for (const char* stage :
       {"dominance.find", "background.tau", "storage.read_gateway"}) {
    ASSERT_EQ(run.sums.count(stage), 1u) << stage;
    faults += run.sums.at(stage).self.minor_faults;
  }
  EXPECT_LE(faults, kFaultBound) << "self minor faults over "
                                 << run.gateways << " gateways";
  std::filesystem::remove_all(dir);
#else
  GTEST_SKIP() << "page faults under a sanitizer's allocator say nothing";
#endif
}

// The same stages run the same number of times at 1 and 4 threads; the
// per-gateway stages run once per gateway; and the self CPU of all stages,
// each counted once, fits in the CPU the process spent.
TEST(FleetStageSumsTest, SameStagesAndCallsAtOneAndFourThreads) {
  const std::string dir = testing::TempDir() + "/fleet_stages";
  const std::string fleet_path = WriteFleet(dir);

  const FleetRun serial = AnalyzeWithCollector(fleet_path, 1);
  const FleetRun parallel = AnalyzeWithCollector(fleet_path, 4);
  ASSERT_GT(serial.gateways, 0u);
  EXPECT_EQ(parallel.gateways, serial.gateways);
  const auto calls = [](const FleetRun& run) {
    std::map<std::string, uint64_t> out;
    for (const auto& [stage, sum] : run.sums) out[stage] = sum.calls;
    return out;
  };
  EXPECT_EQ(calls(parallel), calls(serial));
  for (const FleetRun* run : {&serial, &parallel}) {
    for (const char* stage : {"storage.read_gateway", "core.gateway_pipeline",
                              "dominance.find", "fleet.gateway"}) {
      ASSERT_EQ(run->sums.count(stage), 1u) << stage;
      EXPECT_EQ(run->sums.at(stage).calls, run->gateways) << stage;
    }
    double self_cpu = 0.0;
    for (const auto& [stage, sum] : run->sums) {
      EXPECT_LE(sum.self_seconds, sum.seconds + 1e-9) << stage;
      self_cpu += sum.self.cpu_seconds();
    }
    // getrusage reports whole microseconds; allow for that rounding.
    EXPECT_LE(self_cpu, run->cpu_seconds + 1e-5);
    EXPECT_GT(self_cpu, 0.0);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace homets
