// homets_profile: turn a run manifest into a per-stage scaling diagnosis.
//
//   homets_profile RUN_MANIFEST.json
//
// For every entry of "stages" (the CLI's stages) it prints wall seconds, cpu
// seconds (user+sys from getrusage deltas), peak RSS and the manifest's own
// parallel_efficiency = cpu_seconds / (wall_seconds * threads_used). The
// manifest omits that figure for stages under 10 ms (getrusage ticks are too
// coarse there); such a stage reads "n/a" and the verdict too-short. The
// other verdicts are scales / partial / core-bound / under-utilized, or
// no-data for a manifest without per-stage resources.
//
// Then, for every entry of "stage_sums" (the library's stages summed by
// name over gateways and threads), it prints the calls, self wall seconds,
// self CPU seconds of the running threads, that CPU's share of the summed
// self CPU of all rows, and self minor faults; the diagnosis names the
// stage with the largest self CPU.
//
// Exit codes: 0 report printed, 2 usage or artifact error.
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/json.h"

namespace homets {
namespace {

struct StageRow {
  std::string stage;
  double wall = 0.0;
  bool has_resources = false;
  double cpu = 0.0;
  uint64_t max_rss = 0;
  std::optional<double> efficiency;  ///< as the manifest recorded it
};

const char* Verdict(const StageRow& row, int threads) {
  if (!row.has_resources) return "no-data";
  if (!row.efficiency) return "too-short";
  const double efficiency = *row.efficiency;
  if (threads > 1 && efficiency < 0.5) {
    // Distinguish "the machine has no more cores" from "the workers are
    // starved": if total CPU burnt is about one core's worth of the wall
    // time, the stage ran serially no matter how many threads it asked for.
    return row.cpu <= row.wall * 1.25 ? "core-bound" : "under-utilized";
  }
  return efficiency >= 0.75 ? "scales" : "partial";
}

struct SumRow {
  std::string stage;
  double calls = 0.0;
  double self_wall = 0.0;
  double self_cpu = 0.0;
  double self_minor_faults = 0.0;
};

// The "stage_sums" table and its totals line, in manifest order. Returns the
// row with the largest self CPU (the first of equals), or null for no rows.
const SumRow* PrintStageSums(const std::vector<SumRow>& sums) {
  double total_wall = 0.0;
  double total_cpu = 0.0;
  for (const SumRow& row : sums) {
    total_wall += row.self_wall;
    total_cpu += row.self_cpu;
  }
  std::printf("%-28s %8s %11s %10s %6s %12s\n", "library_stage", "calls",
              "self_wall_s", "self_cpu_s", "share", "self_minflt");
  const SumRow* top = nullptr;
  for (const SumRow& row : sums) {
    if (top == nullptr || row.self_cpu > top->self_cpu) top = &row;
    char share[16];
    if (total_cpu > 0.0) {
      std::snprintf(share, sizeof(share), "%5.1f%%",
                    100.0 * row.self_cpu / total_cpu);
    } else {
      std::snprintf(share, sizeof(share), "%6s", "n/a");
    }
    std::printf("%-28s %8.0f %11.3f %10.3f %s %12.0f\n", row.stage.c_str(),
                row.calls, row.self_wall, row.self_cpu, share,
                row.self_minor_faults);
  }
  std::printf("library totals: self_wall=%.3fs self_cpu=%.3fs\n", total_wall,
              total_cpu);
  return top;
}

int Run(const std::string& manifest_path) {
  auto parsed = ReadJsonFile(manifest_path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "homets_profile: %s\n",
                 parsed.status().message().c_str());
    return 2;
  }
  const JsonValue root = std::move(parsed).value();
  if (!root.is_object()) {
    std::fprintf(stderr, "homets_profile: %s: top level is not an object\n",
                 manifest_path.c_str());
    return 2;
  }
  const double schema_version = root.NumberOr("schema_version", 0);
  const JsonValue* threads_node = root.Find("threads");
  const int hardware =
      threads_node ? static_cast<int>(threads_node->NumberOr("hardware", 0))
                   : 0;
  int used = threads_node
                 ? static_cast<int>(threads_node->NumberOr("used", 0))
                 : 0;
  if (used <= 0) used = 1;
  const JsonValue* stages = root.Find("stages");
  if (stages == nullptr || !stages->is_array()) {
    std::fprintf(stderr, "homets_profile: %s: missing \"stages\" array\n",
                 manifest_path.c_str());
    return 2;
  }

  std::printf("homets_profile: %s (manifest schema v%g, tool %s)\n",
              manifest_path.c_str(), schema_version,
              root.StringOr("tool", "?").c_str());
  std::printf("threads: hardware=%d used=%d\n", hardware, used);
  if (schema_version < 2) {
    std::printf("note: manifest schema v%g predates per-stage resources; "
                "cpu/efficiency columns will read n/a\n", schema_version);
  }

  std::vector<SumRow> sums;
  if (const JsonValue* node = root.Find("stage_sums");
      node != nullptr && node->is_array()) {
    for (const JsonValue& entry : node->array_items()) {
      sums.push_back(SumRow{entry.StringOr("stage", "?"),
                            entry.NumberOr("calls", 0),
                            entry.NumberOr("self_seconds", 0),
                            entry.NumberOr("self_cpu_seconds", 0),
                            entry.NumberOr("self_minor_faults", 0)});
    }
  }

  std::vector<StageRow> rows;
  for (const JsonValue& entry : stages->array_items()) {
    StageRow row;
    row.stage = entry.StringOr("stage", "?");
    row.wall = entry.NumberOr("seconds", 0);
    if (const JsonValue* res = entry.Find("resources")) {
      row.has_resources = true;
      row.cpu = res->NumberOr("cpu_seconds", 0);
      row.max_rss = static_cast<uint64_t>(res->NumberOr("max_rss_bytes", 0));
      const JsonValue* efficiency = res->Find("parallel_efficiency");
      if (efficiency != nullptr && efficiency->is_number()) {
        row.efficiency = efficiency->number_value();
      }
    }
    rows.push_back(std::move(row));
  }

  std::printf("%-28s %9s %9s %6s %8s  %s\n", "stage", "wall_s", "cpu_s",
              "eff", "rss_mb", "verdict");
  double total_wall = 0.0;
  double total_cpu = 0.0;
  // Wall-weighted mean of the stages that carry an efficiency, so the run
  // figure follows the manifest's 10 ms rule too.
  double timed_wall = 0.0;
  double weighted_efficiency = 0.0;
  for (const StageRow& row : rows) {
    total_wall += row.wall;
    total_cpu += row.cpu;
    char cpu_buf[32];
    char eff_buf[16];
    if (row.has_resources) {
      std::snprintf(cpu_buf, sizeof(cpu_buf), "%9.3f", row.cpu);
    } else {
      std::snprintf(cpu_buf, sizeof(cpu_buf), "%9s", "n/a");
    }
    if (row.efficiency) {
      timed_wall += row.wall;
      weighted_efficiency += *row.efficiency * row.wall;
      std::snprintf(eff_buf, sizeof(eff_buf), "%6.2f", *row.efficiency);
    } else {
      std::snprintf(eff_buf, sizeof(eff_buf), "%6s", "n/a");
    }
    std::printf("%-28s %9.3f %s %s %8.1f  %s\n", row.stage.c_str(), row.wall,
                cpu_buf, eff_buf,
                static_cast<double>(row.max_rss) / (1024.0 * 1024.0),
                Verdict(row, used));
  }
  const bool any_efficiency = timed_wall > 0.0;
  const double overall_eff =
      any_efficiency ? weighted_efficiency / timed_wall : 0.0;
  std::printf("totals: wall=%.3fs cpu=%.3fs efficiency=%.2f\n", total_wall,
              total_cpu, overall_eff);
  const SumRow* top = sums.empty() ? nullptr : PrintStageSums(sums);

  // The headline diagnosis: what bounds this run's scaling.
  if (used > hardware && hardware > 0) {
    std::printf(
        "diagnosis: %d threads requested on %d hardware core(s) — the "
        "efficiency ceiling is %d/%d = %.2f; extra threads time-slice one "
        "core and cannot speed anything up\n",
        used, hardware, hardware, used,
        static_cast<double>(hardware) / used);
  } else if (any_efficiency && overall_eff < 0.5) {
    std::printf("diagnosis: low efficiency — the workers are starved or "
                "memory-stalled, or the stage runs serially; see the "
                "per-stage verdicts\n");
  } else if (any_efficiency) {
    std::printf("diagnosis: scaling is healthy at this thread count\n");
  } else {
    std::printf("diagnosis: no stage carries parallel_efficiency (every "
                "stage ran under 10 ms, or the manifest has no per-stage "
                "resources)\n");
  }

  if (top != nullptr) {
    std::printf("diagnosis: %s has the largest self CPU, %.3fs over %.0f "
                "calls\n", top->stage.c_str(), top->self_cpu, top->calls);
  }
  return 0;
}

}  // namespace
}  // namespace homets

int main(int argc, char** argv) {
  std::vector<std::string> raw(argv + 1, argv + argc);
  auto parsed = homets::ParseFlags(raw, {});
  if (!parsed.ok()) {
    std::fprintf(stderr, "homets_profile: %s\n",
                 parsed.status().message().c_str());
    return 2;
  }
  if (parsed.value().positional.size() != 1) {
    std::fprintf(stderr, "usage: homets_profile RUN_MANIFEST.json\n");
    return 2;
  }
  return homets::Run(parsed.value().positional[0]);
}
