// Sharded fleet-execution scaling bench (DESIGN.md §15): generates one
// out-of-core simgen fleet as a single .homets file, then runs the full
// per-gateway pipeline through FleetOrchestrator at several shard counts —
// once bare and once with checkpointing — and writes the BENCH_fleet.json
// scaling-curve artifact (shards/sec, gateways/sec, checkpoint overhead).
//
// The reports of every configuration must be byte-identical (the merge is
// deterministic in shard index); the bench asserts that as it measures, so
// a scaling win can never silently buy a correctness loss.
//
// Flags:
//   --fleet_json=PATH   output path (default BENCH_fleet.json)
//   --gateways=N        fleet size (default 48; HOMETS_SMOKE_* clamp)
//   --weeks=W           trace length (default 4)
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fleet/checkpoint.h"
#include "fleet/orchestrator.h"
#include "obs/json_encoder.h"
#include "simgen/fleet.h"
#include "storage/homets_format.h"

namespace {

using namespace homets;  // NOLINT: bench binary

constexpr int kSchemaVersion = 1;
constexpr int kShardCounts[] = {1, 2, 4, 8};

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_fleet.json";
  int gateways = 48;
  int weeks = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--fleet_json=", 0) == 0) {
      json_path = arg.substr(std::string("--fleet_json=").size());
    } else if (arg.rfind("--gateways=", 0) == 0) {
      gateways = std::atoi(arg.c_str() + std::string("--gateways=").size());
    } else if (arg.rfind("--weeks=", 0) == 0) {
      weeks = std::atoi(arg.c_str() + std::string("--weeks=").size());
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  simgen::SimConfig config = bench::PaperConfig();
  config.n_gateways = gateways;
  config.weeks = weeks;
  bench::ApplySmokeClamps(&config);

  // Out-of-core setup: the whole fleet streams into one columnar file; peak
  // memory is a single gateway, however large --gateways is.
  char tmpl[] = "/tmp/homets_bench_fleet_XXXXXX";
  const char* tmpdir = mkdtemp(tmpl);
  if (tmpdir == nullptr) {
    std::cerr << "mkdtemp failed\n";
    return 1;
  }
  const std::string fleet_path = std::string(tmpdir) + "/fleet.homets";
  simgen::FleetGenerator generator(config);
  const auto written = storage::WriteFleetHomets(generator, fleet_path);
  if (!written.ok()) {
    std::cerr << "fleet setup failed: " << written.status().ToString()
              << "\n";
    return 1;
  }
  std::cout << "fleet: " << written->gateways << " gateways x "
            << config.weeks << " weeks -> " << fleet_path << "\n";

  obs::JsonEncoder json;
  json.BeginObject()
      .Member("schema", "homets.bench_fleet")
      .Member("schema_version", kSchemaVersion)
      .Member("scenario", "fleet_scaling")
      .Member("gateways", config.n_gateways)
      .Member("weeks", config.weeks)
      .Member("hardware_threads", bench::HardwareThreads())
      .Key("entries")
      .BeginArray();
  size_t n_entries = 0;
  std::string reference_report;
  int rc = 0;
  for (const bool checkpointed : {false, true}) {
    for (const int shards : kShardCounts) {
      fleet::FleetOptions options;
      options.n_shards = shards;
      const std::string ckpt_dir =
          std::string(tmpdir) + "/ckpt_" + std::to_string(shards);
      if (checkpointed) options.checkpoint_dir = ckpt_dir;
      fleet::FleetOrchestrator orchestrator({fleet_path}, options);
      const auto start = Clock::now();
      const auto report = orchestrator.Analyze();
      const double seconds = SecondsSince(start);
      if (!report.ok()) {
        std::cerr << "fleet run failed: " << report.status().ToString()
                  << "\n";
        rc = 1;
        break;
      }
      // Correctness rides along: every configuration must merge to the same
      // figures (the shard-count header line is the only allowed delta).
      const std::string formatted = fleet::FormatFleetReport(*report);
      const std::string figures = formatted.substr(formatted.find('\n') + 1);
      if (reference_report.empty()) {
        reference_report = figures;
      } else if (figures != reference_report) {
        std::cerr << "report mismatch at shards=" << shards
                  << " checkpointed=" << checkpointed << "\n";
        rc = 1;
        break;
      }
      const size_t n_gateways = report->gateways.size();
      json.BeginObject()
          .Member("stage",
                  checkpointed ? "fleet_checkpointed" : "fleet_analyze")
          .Member("shards", shards)
          .Member("seconds", seconds)
          .Member("gateways", n_gateways);
      if (seconds > 0.0) {
        json.Member("shards_per_sec", static_cast<double>(shards) / seconds)
            .Member("gateways_per_sec",
                    static_cast<double>(n_gateways) / seconds);
      }
      json.EndObject();
      ++n_entries;
      std::cout << "  " << (checkpointed ? "ckpt" : "bare") << " shards="
                << shards << ": " << bench::Fmt(seconds) << " s ("
                << bench::Fmt(seconds > 0.0
                                  ? static_cast<double>(shards) / seconds
                                  : 0.0)
                << " shards/sec)\n";
    }
    if (rc != 0) break;
  }

  if (rc == 0) {
    json.EndArray().EndObject();
    std::ofstream out(json_path);
    out << json.str();
    if (!out) {
      std::cerr << "write failed: " << json_path << "\n";
      rc = 1;
    } else {
      std::cout << n_entries << " fleet entries -> " << json_path
                << "\n";
    }
  }

  // Cleanup: checkpoints, fleet file, temp dir.
  for (const int shards : kShardCounts) {
    const std::string ckpt_dir =
        std::string(tmpdir) + "/ckpt_" + std::to_string(shards);
    for (int s = 0; s < shards; ++s) {
      std::remove(fleet::ShardCheckpointPath(ckpt_dir, s).c_str());
    }
    std::remove((ckpt_dir + "/fleet_manifest.json").c_str());
    rmdir(ckpt_dir.c_str());
  }
  std::remove(fleet_path.c_str());
  rmdir(tmpdir);
  return rc;
}
