// The library's stage sums over a whole fleet run (`ctest -L threads`, run
// under ThreadSanitizer by tools/run_all_gates.sh): every stage closes into
// the one installed collector from whichever worker thread ran it.
#include <gtest/gtest.h>

#include <algorithm>
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

FleetRun AnalyzeWithCollector(const std::string& fleet_path, int threads) {
  fleet::FleetOptions options;
  options.n_shards = 4;
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

// The same stages run the same number of times at 1 and 4 threads; the
// per-gateway stages run once per gateway; and the self CPU of all stages,
// each counted once, fits in the CPU the process spent.
TEST(FleetStageSumsTest, SameStagesAndCallsAtOneAndFourThreads) {
  const std::string dir = testing::TempDir() + "/fleet_stages";
  std::filesystem::create_directories(dir);
  const std::string fleet_path = dir + "/fleet.homets";
  simgen::SimConfig config;
  config.n_gateways = 6;
  config.weeks = 2;
  config.surveyed_gateways =
      std::min(config.surveyed_gateways, config.n_gateways);
  const simgen::FleetGenerator generator(config);
  ASSERT_TRUE(storage::WriteFleetHomets(generator, fleet_path).ok());

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
