// Full-pipeline performance harness: exercises every engine stage end to
// end — CSV ingest, csv→homets compaction, columnar ingest, series
// preparation, pairwise correlation, the strong-stationarity funnel,
// best-aggregation search, φ-dominance, background thresholding, motif
// mining and the streaming path — on deterministic simgen workloads at
// several fleet sizes, and writes the schema-versioned BENCH_pipeline.json
// trajectory artifact.
//
// Each entry couples a stage's wall time with the delta of the process
// metrics registry across the stage (pairs computed, KS rejections, values
// zeroed, …) so the artifact carries *per-unit* costs (ns/pair,
// windows/sec), not just seconds. tools/bench_compare diffs two such
// artifacts and gates regressions.
//
// Flags:
//   --pipeline_json=PATH   output path (default BENCH_pipeline.json)
//   --sizes=a,b,c          subset of small,medium,large (default all)
//   --progress             narrate live stage progress + heartbeats on
//                          stderr (default off; the timed stages only touch
//                          the tracker when one is installed, so the flag
//                          costs nothing when absent)
//   --prof                 enable the execution profiler: stage metric
//                          deltas gain homets.prof.* lock-wait and pool
//                          busy/idle/queue-wait counters (default off; the
//                          per-stage rusage accounting below is always on)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/aggregation.h"
#include "core/dominance.h"
#include "core/motif.h"
#include "core/profiling.h"
#include "core/similarity_engine.h"
#include "core/stationarity.h"
#include "core/streaming.h"
#include "fleet/orchestrator.h"
#include "io/dataset.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/progress.h"
#include "simgen/fleet.h"
#include "storage/homets_format.h"
#include "ts/time_series.h"

namespace {

using namespace homets;  // NOLINT: bench binary

/// The artifact's wire format version. Bump when entry fields change
/// incompatibly; tools/bench_compare refuses to diff across versions.
/// v2: added convert/col_ingest stages and the threads_used field.
/// v3: added per-entry cpu_seconds, peak_rss_bytes and (when the stage ran
/// long enough for rusage ticks to resolve) parallel_efficiency.
constexpr int kSchemaVersion = 3;

struct SizeSpec {
  const char* name;
  int gateways;
  int weeks;
};

constexpr SizeSpec kSizes[] = {
    {"small", 8, 2},
    {"medium", 24, 4},
    {"large", 48, 6},
};

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process CPU time (user+sys) consumed so far. getrusage advances in
/// scheduler ticks (1–4 ms), so deltas over sub-tick regions can read zero —
/// Emit only derives parallel_efficiency when the stage's wall time clears
/// the same floor the run-manifest writer uses.
double CpuSecondsNow() {
  const obs::ResourceUsage usage = obs::CaptureRusage();
  return usage.user_seconds + usage.sys_seconds;
}

constexpr double kEfficiencyWallFloorSeconds = 0.01;

/// What a StageAccumulated callback hands back: its own fine-grained wall +
/// CPU timing (both summed over the timed regions only) and the unit count.
struct AccumulatedTiming {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  size_t units = 0;
};

/// Counter/histogram-count deltas across a stage, as an inline JSON object.
/// Gauges are instantaneous (queue depth) and meaningless as deltas, so only
/// monotonic values are recorded.
std::string MetricsDeltaJson(const obs::MetricsSnapshot& before,
                             const obs::MetricsSnapshot& after) {
  bench::JsonWriter delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const uint64_t prior = it == before.counters.end() ? 0 : it->second;
    if (value > prior) delta.Set(name, static_cast<size_t>(value - prior));
  }
  for (const auto& [name, h] : after.histograms) {
    const auto it = before.histograms.find(name);
    const uint64_t prior =
        it == before.histograms.end() ? 0 : it->second.count;
    if (h.count > prior) {
      delta.Set(name + ".count", static_cast<size_t>(h.count - prior));
    }
  }
  return delta.Inline();
}

/// Collects one timed stage entry: `fn` returns the unit count (windows,
/// pairs, rows, …) it processed.
class PipelineBench {
 public:
  PipelineBench(const std::string& size, int threads_used)
      : size_(size), threads_used_(threads_used) {}

  /// Times `fn` as one contiguous region.
  template <typename Fn>
  void Stage(const std::string& stage, const std::string& unit, Fn&& fn) {
    const obs::MetricsSnapshot before = SnapshotWithProf();
    // Registering up front makes the stage visible as "active" in any
    // heartbeat that fires while fn() runs; without --progress the accessor
    // returns nullptr and the stage path costs one relaxed load.
    obs::ProgressTracker::Stage* progress =
        obs::ProgressStage(size_ + "/" + stage);
    const double cpu_start = CpuSecondsNow();
    const auto start = Clock::now();
    const size_t units = fn();
    const double seconds = SecondsSince(start);
    const double cpu_seconds = CpuSecondsNow() - cpu_start;
    if (progress != nullptr) {
      progress->AddTotal(units);
      progress->Finish();  // homets-lint: allow(discarded-status)
    }
    Emit(stage, unit, seconds, cpu_seconds, units, before);
  }

  /// For stages interleaved with untimed setup (trace regeneration): `fn`
  /// does its own fine-grained wall + CPU timing and returns an
  /// AccumulatedTiming. The metrics delta still brackets the whole pass —
  /// setup (simgen, CSV writes) moves no counters, so the delta is the
  /// stage's alone.
  template <typename Fn>
  void StageAccumulated(const std::string& stage, const std::string& unit,
                        Fn&& fn) {
    const obs::MetricsSnapshot before = SnapshotWithProf();
    obs::ProgressTracker::Stage* progress =
        obs::ProgressStage(size_ + "/" + stage);
    const AccumulatedTiming result = fn();
    if (progress != nullptr) {
      progress->AddTotal(result.units);
      progress->Finish();  // homets-lint: allow(discarded-status)
    }
    Emit(stage, unit, result.seconds, result.cpu_seconds, result.units,
         before);
  }

  const std::vector<std::string>& entries() const { return entries_; }

 private:
  /// Registry snapshot with the profiler's lock/alloc accumulators flushed
  /// first, so per-stage counter deltas attribute homets.prof.* movement to
  /// the stage that caused it (a no-op while the profiler is off).
  static obs::MetricsSnapshot SnapshotWithProf() {
    if (obs::ProfilerEnabled()) obs::PublishProfMetrics();
    return obs::MetricsRegistry::Global().Snapshot();
  }

  void Emit(const std::string& stage, const std::string& unit,
            double seconds, double cpu_seconds, size_t units,
            const obs::MetricsSnapshot& before) {
    const obs::MetricsSnapshot after = SnapshotWithProf();
    bench::JsonWriter entry;
    entry.Set("stage", stage).Set("size", size_).Set("seconds", seconds);
    entry.Set("unit", unit).Set("units", units);
    if (units > 0 && seconds > 0.0) {
      entry.Set("ns_per_unit", seconds * 1e9 / static_cast<double>(units));
      entry.Set("units_per_sec", static_cast<double>(units) / seconds);
    }
    entry.Set("cpu_seconds", cpu_seconds < 0.0 ? 0.0 : cpu_seconds);
    entry.Set("peak_rss_bytes",
              static_cast<size_t>(obs::CaptureRusage().max_rss_bytes));
    // Only meaningful once the wall time clears the rusage tick floor;
    // bench_compare treats the field as optional (informational when absent).
    if (threads_used_ > 0 && seconds >= kEfficiencyWallFloorSeconds &&
        cpu_seconds > 0.0) {
      entry.Set("parallel_efficiency",
                cpu_seconds / (seconds * threads_used_));
    }
    entry.SetRaw("metrics", MetricsDeltaJson(before, after));
    entries_.push_back(entry.Inline());
    std::cout << "  " << size_ << "/" << stage << ": "
              << bench::Fmt(seconds) << " s, " << units << " " << unit
              << "\n";
  }

  std::string size_;
  int threads_used_;
  std::vector<std::string> entries_;
};

void RunSize(const SizeSpec& spec, int threads_used,
             std::vector<std::string>* entries) {
  simgen::SimConfig config = bench::PaperConfig();
  config.n_gateways = spec.gateways;
  config.weeks = spec.weeks;
  bench::ApplySmokeClamps(&config);
  simgen::FleetGenerator generator(config);
  PipelineBench bench(spec.name, threads_used);
  std::cout << spec.name << ": " << config.n_gateways << " gateways x "
            << config.weeks << " weeks\n";

  // Setup pass (untimed): write the fleet's CSVs for the ingest stage. Raw
  // traces are regenerated per stage rather than held — a full fleet of
  // them would be GBs (see FleetGenerator's contract).
  char tmpl[] = "/tmp/homets_pipeline_XXXXXX";
  const char* tmpdir = mkdtemp(tmpl);
  std::vector<std::string> csv_paths;
  for (int id = 0; id < config.n_gateways; ++id) {
    if (tmpdir == nullptr) break;
    const std::string path = StrFormat("%s/gateway_%03d.csv", tmpdir, id);
    if (io::WriteGatewayCsv(path, generator.Generate(id)).ok()) {
      csv_paths.push_back(path);
    }
  }

  // Both ingest stages count the same unit — observed incoming
  // device-minutes on the decoded grid — so their units_per_sec are
  // directly comparable (the columnar hot path's speedup over CSV).
  const auto ingest_rows = [](io::DatasetReader* reader) {
    size_t rows = 0;
    for (size_t g = 0; g < reader->gateway_count(); ++g) {
      const auto gw = reader->ReadGateway(g);
      if (!gw.ok()) continue;
      for (const auto& device : gw->devices) {
        rows += device.incoming.CountObserved();
      }
    }
    return rows;
  };

  bench.Stage("csv_ingest", "rows", [&] {
    size_t rows = 0;
    for (const auto& path : csv_paths) {
      auto reader = io::DatasetReader::Open(path);
      if (!reader.ok()) continue;
      rows += ingest_rows(&*reader);
    }
    return rows;
  });

  // csv→homets compaction: the one-time cost of moving a fleet off the CSV
  // edge onto the columnar hot path.
  std::vector<std::string> homets_paths;
  bench.Stage("convert", "rows", [&] {
    size_t rows = 0;
    for (const auto& path : csv_paths) {
      const std::string out = path.substr(0, path.size() - 4) + ".homets";
      const auto stats = io::CompactCsvToHomets(path, out);
      if (!stats.ok()) continue;
      rows += stats->rows;
      homets_paths.push_back(out);
    }
    return rows;
  });

  bench.Stage("col_ingest", "rows", [&] {
    size_t rows = 0;
    for (const auto& path : homets_paths) {
      auto reader = io::DatasetReader::Open(path);
      if (!reader.ok()) continue;
      rows += ingest_rows(&*reader);
    }
    return rows;
  });

  for (const auto& path : csv_paths) std::remove(path.c_str());
  for (const auto& path : homets_paths) std::remove(path.c_str());
  if (tmpdir != nullptr) rmdir(tmpdir);

  // The per-gateway dataflow (core::GatewayPipeline): τ estimation per
  // device (Section 6.1), device totals, the raw aggregate and the active
  // aggregate — the series every later stage consumes.
  std::vector<ts::TimeSeries> actives;
  bench.StageAccumulated("background", "trace_minutes", [&] {
    AccumulatedTiming timing;
    for (int id = 0; id < config.n_gateways; ++id) {
      const simgen::GatewayTrace gw = generator.Generate(id);
      const double cpu_start = CpuSecondsNow();
      const auto start = Clock::now();
      core::GatewayPipeline pipeline = core::BuildGatewayPipeline(gw);
      timing.seconds += SecondsSince(start);
      timing.cpu_seconds += CpuSecondsNow() - cpu_start;
      timing.units += pipeline.active.size();
      actives.push_back(std::move(pipeline.active));
    }
    return timing;
  });

  // φ-dominance (Definition 4) over the raw per-minute traces.
  bench.StageAccumulated("dominance", "devices", [&] {
    AccumulatedTiming timing;
    for (int id = 0; id < config.n_gateways; ++id) {
      const simgen::GatewayTrace gw = generator.Generate(id);
      const double cpu_start = CpuSecondsNow();
      const auto start = Clock::now();
      const auto dominant = core::FindDominantDevices(gw);
      timing.seconds += SecondsSince(start);
      timing.cpu_seconds += CpuSecondsNow() - cpu_start;
      timing.units += gw.devices.size();
      (void)dominant;
    }
    return timing;
  });

  // Weekly windows at 3 h bins (56 per window): the Figure 3 / stationarity
  // workload shape.
  std::vector<ts::TimeSeries> weekly;
  std::map<int, std::pair<size_t, size_t>> weekly_by_gateway;  // id -> range
  for (size_t g = 0; g < actives.size(); ++g) {
    auto windows =
        ts::AggregateWindows(actives[g], 180, ts::kMinutesPerWeek, 0);
    weekly_by_gateway[static_cast<int>(g)] = {weekly.size(),
                                              weekly.size() + windows.size()};
    for (auto& w : windows) weekly.push_back(std::move(w));
  }

  core::SimilarityEngine engine;
  std::vector<correlation::PreparedSeries> prepared;
  bench.Stage("prepare", "windows", [&] {
    prepared = core::SimilarityEngine::PrepareWindows(weekly);
    return prepared.size();
  });

  bench.Stage("pairwise", "pairs", [&] {
    const core::SimilarityMatrix matrix = engine.Pairwise(prepared);
    return matrix.pair_count();
  });

  bench.Stage("stationarity", "window_pairs", [&] {
    size_t pairs = 0;
    for (const auto& [id, range] : weekly_by_gateway) {
      const std::vector<ts::TimeSeries> windows(
          weekly.begin() + static_cast<long>(range.first),
          weekly.begin() + static_cast<long>(range.second));
      if (windows.size() < 2) continue;
      const auto result = core::CheckStrongStationarity(windows);
      if (result.ok()) pairs += result->window_pairs;
    }
    return pairs;
  });

  bench.Stage("aggregation_search", "sweep_points", [&] {
    const std::vector<int64_t> granularities = {60, 180, 480, 720};
    core::AggregationSweepOptions options;
    options.period = core::PatternPeriod::kWeekly;
    const auto sweep =
        core::SweepAggregations(actives, granularities, options);
    if (!sweep.ok()) return size_t{0};
    const auto best = core::BestGranularity(*sweep, /*use_stationary=*/false);
    (void)best;
    size_t points = 0;
    for (const auto& point : *sweep) points += point.gateways_all;
    return points;
  });

  // Daily windows at 3 h bins: the Section 7.2.2 motif workload shape.
  std::vector<ts::TimeSeries> daily;
  for (const auto& active : actives) {
    for (auto& w : ts::AggregateWindows(active, 180, ts::kMinutesPerDay, 0)) {
      daily.push_back(std::move(w));
    }
  }
  bench.Stage("motif_mining", "windows", [&] {
    const auto motifs = core::MotifDiscovery().Discover(daily);
    (void)motifs;
    return daily.size();
  });

  // Sharded fleet execution (DESIGN.md §15): the whole per-gateway pipeline
  // again, but through the shard orchestrator over one out-of-core .homets
  // fleet — units are shards, so units_per_sec is the shards/sec figure the
  // scaling story quotes (bench_fleet sweeps the shard count).
  {
    char fleet_tmpl[] = "/tmp/homets_pipeline_fleet_XXXXXX";
    const char* fleet_tmpdir = mkdtemp(fleet_tmpl);
    if (fleet_tmpdir != nullptr) {
      const std::string fleet_path =
          std::string(fleet_tmpdir) + "/fleet.homets";
      if (storage::WriteFleetHomets(generator, fleet_path).ok()) {
        bench.Stage("fleet_analyze", "shards", [&] {
          fleet::FleetOptions options;
          options.n_shards = std::min(8, config.n_gateways);
          fleet::FleetOrchestrator orchestrator({fleet_path}, options);
          const auto report = orchestrator.Analyze();
          return report.ok() ? static_cast<size_t>(report->n_shards)
                             : size_t{0};
        });
      }
      std::remove(fleet_path.c_str());
      rmdir(fleet_tmpdir);
    }
  }

  bench.Stage("streaming", "observations", [&] {
    auto assembler =
        core::WindowAssembler::Make(ts::kMinutesPerDay, 180, 0).value();
    core::StreamingMotifMiner miner(core::MotifOptions{}, 10000);
    size_t observations = 0;
    for (size_t g = 0; g < actives.size(); ++g) {
      const auto& active = actives[g];
      const int id = static_cast<int>(g);
      for (int64_t m = active.start_minute(); m < active.EndMinute(); ++m) {
        const auto completed = assembler.Ingest(
            id, m, active[static_cast<size_t>(m - active.start_minute())]);
        ++observations;
        if (!completed.ok()) continue;
        for (const auto& w : *completed) (void)miner.AddWindow(id, w);
      }
    }
    for (auto& [id, w] : assembler.Flush()) (void)miner.AddWindow(id, w);
    return observations;
  });

  for (const auto& entry : bench.entries()) entries->push_back(entry);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_pipeline.json";
  std::string sizes_csv = "small,medium,large";
  bool progress = false;
  bool prof = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pipeline_json=", 0) == 0) {
      json_path = arg.substr(std::string("--pipeline_json=").size());
    } else if (arg.rfind("--sizes=", 0) == 0) {
      sizes_csv = arg.substr(std::string("--sizes=").size());
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--prof") {
      prof = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  if (prof) obs::EnableProfiler(true);

  obs::ProgressTracker tracker;
  if (progress) {
    obs::InstallGlobalProgressTracker(&tracker);
    tracker.StartHeartbeat(2.0);
  }

  // hardware_threads is what the machine offers; threads_used is what the
  // similarity engine actually runs with (its default of 0 resolves to
  // hardware concurrency) — perf_microbench records both the same way.
  const core::SimilarityEngineOptions engine_options;
  const int threads_used = engine_options.threads > 0
                               ? engine_options.threads
                               : bench::HardwareThreads();

  const std::vector<std::string> wanted = StrSplit(sizes_csv, ',');
  std::vector<std::string> entries;
  std::vector<std::string> size_names;
  const auto start = Clock::now();
  for (const SizeSpec& spec : kSizes) {
    bool selected = false;
    for (const auto& w : wanted) selected = selected || w == spec.name;
    if (!selected) continue;
    size_names.push_back(StrFormat("\"%s\"", spec.name));
    RunSize(spec, threads_used, &entries);
  }
  if (progress) {
    tracker.StopHeartbeat();
    obs::InstallGlobalProgressTracker(nullptr);
  }
  if (entries.empty()) {
    std::cerr << "no sizes selected from --sizes=" << sizes_csv << "\n";
    return 2;
  }

  bench::JsonWriter json;
  json.Set("schema", "homets.bench_pipeline")
      .Set("schema_version", kSchemaVersion)
      .Set("scenario", "full_pipeline")
      .Set("hardware_threads", bench::HardwareThreads())
      .Set("threads_used", threads_used)
      .SetRaw("sizes", bench::JsonWriter::Array(size_names))
      .Set("total_seconds", SecondsSince(start))
      .SetRaw("entries", bench::JsonWriter::Array(entries));

  std::ofstream out(json_path);
  out << json.Dump();
  if (!out) {
    std::cerr << "write failed: " << json_path << "\n";
    return 1;
  }
  std::cout << entries.size() << " pipeline entries -> " << json_path
            << "\n";
  return 0;
}
