// Full-pipeline performance harness: exercises every engine stage end to
// end — CSV ingest, csv→homets compaction, columnar ingest, series
// preparation, pairwise correlation, the strong-stationarity funnel,
// best-aggregation search, φ-dominance, background thresholding, motif
// mining and the streaming path — on deterministic simgen workloads at
// several fleet sizes, and writes the schema-versioned BENCH_pipeline.json
// trajectory artifact.
//
// Each entry is printed from the stage's obs::StageRecord (the same record
// run manifests carry): wall time, CPU and peak RSS, and the delta of the
// process metrics registry across the stage (pairs computed, KS rejections,
// values zeroed, …), so the artifact carries *per-unit* costs (ns/pair,
// windows/sec), not just seconds. tools/bench_compare diffs two such
// artifacts and gates regressions.
//
// Flags:
//   --pipeline_json=PATH   output path (default BENCH_pipeline.json)
//   --sizes=a,b,c          subset of small,medium,large (default all)
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
#include "obs/json_encoder.h"
#include "obs/report.h"
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

/// One BENCH_pipeline.json entry: a stage of one fleet size, printed from
/// the stage's obs::StageRecord.
struct Entry {
  std::string size;
  std::string unit;
  obs::StageRecord record;
};

void EncodeEntry(const Entry& e, int threads_used, obs::JsonEncoder* out) {
  const double seconds = e.record.seconds;
  const uint64_t units = e.record.units;
  out->BeginObject()
      .Member("stage", e.record.stage)
      .Member("size", e.size)
      .Member("seconds", seconds)
      .Member("unit", e.unit)
      .Member("units", units);
  if (units > 0 && seconds > 0.0) {
    out->Member("ns_per_unit", seconds * 1e9 / static_cast<double>(units))
        .Member("units_per_sec", static_cast<double>(units) / seconds);
  }
  out->Member("cpu_seconds", e.record.cpu_seconds())
      .Member("peak_rss_bytes", e.record.resources.max_rss_bytes);
  // bench_compare treats the field as optional (informational when
  // absent).
  if (const auto efficiency = e.record.parallel_efficiency(threads_used)) {
    out->Member("parallel_efficiency", *efficiency);
  }
  out->Key("metrics").BeginObject();
  for (const auto& [name, delta] : e.record.metric_deltas) {
    out->Member(name, delta);
  }
  out->EndObject().EndObject();
}

/// Collects one fleet size's entries.
class PipelineBench {
 public:
  PipelineBench(const std::string& size, std::vector<Entry>* entries)
      : size_(size), entries_(entries) {}

  /// Times `fn` as one contiguous stage; `fn` returns the unit count
  /// (windows, pairs, rows, …) it processed.
  template <typename Fn>
  void Stage(const std::string& stage, const std::string& unit, Fn&& fn) {
    obs::StageRecord record;
    {
      obs::StageTimer timer(stage, &record);
      timer.set_units(fn());
    }
    AddEntry(unit, record);
  }

  /// Adds the entry of a finished stage. A stage interleaved with untimed
  /// setup (trace regeneration) times each piece with an obs::StageTimer
  /// into one record and adds it here.
  void AddEntry(const std::string& unit, const obs::StageRecord& record) {
    entries_->push_back(Entry{size_, unit, record});
    std::cout << "  " << size_ << "/" << record.stage << ": "
              << bench::Fmt(record.seconds) << " s, " << record.units << " "
              << unit << "\n";
  }

 private:
  std::string size_;
  std::vector<Entry>* entries_;
};

void RunSize(const SizeSpec& spec, std::vector<Entry>* entries) {
  simgen::SimConfig config = bench::PaperConfig();
  config.n_gateways = spec.gateways;
  config.weeks = spec.weeks;
  bench::ApplySmokeClamps(&config);
  simgen::FleetGenerator generator(config);
  PipelineBench bench(spec.name, entries);
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
  obs::StageRecord background;
  for (int id = 0; id < config.n_gateways; ++id) {
    const simgen::GatewayTrace gw = generator.Generate(id);
    obs::StageTimer timer("background", &background);
    core::GatewayPipeline pipeline = core::BuildGatewayPipeline(gw);
    timer.set_units(pipeline.active.size());
    actives.push_back(std::move(pipeline.active));
  }
  bench.AddEntry("trace_minutes", background);

  // φ-dominance (Definition 4) over the raw per-minute traces.
  obs::StageRecord dominance;
  for (int id = 0; id < config.n_gateways; ++id) {
    const simgen::GatewayTrace gw = generator.Generate(id);
    obs::StageTimer timer("dominance", &dominance);
    const auto dominant = core::FindDominantDevices(gw);
    timer.set_units(gw.devices.size());
    (void)dominant;
  }
  bench.AddEntry("devices", dominance);

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
  // fleet — units are shards, so units_per_sec is the shards/sec figure.
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
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_pipeline.json";
  std::string sizes_csv = "small,medium,large";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--pipeline_json=", 0) == 0) {
      json_path = arg.substr(std::string("--pipeline_json=").size());
    } else if (arg.rfind("--sizes=", 0) == 0) {
      sizes_csv = arg.substr(std::string("--sizes=").size());
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  // hardware_threads is what the machine offers; threads_used is what the
  // similarity engine actually runs with (its default of 0 resolves to
  // hardware concurrency) — perf_microbench records both the same way.
  const core::SimilarityEngineOptions engine_options;
  const int threads_used = engine_options.threads > 0
                               ? engine_options.threads
                               : bench::HardwareThreads();

  const std::vector<std::string> wanted = StrSplit(sizes_csv, ',');
  std::vector<Entry> entries;
  std::vector<std::string> size_names;
  const auto start = Clock::now();
  for (const SizeSpec& spec : kSizes) {
    bool selected = false;
    for (const auto& w : wanted) selected = selected || w == spec.name;
    if (!selected) continue;
    size_names.push_back(spec.name);
    RunSize(spec, &entries);
  }
  if (entries.empty()) {
    std::cerr << "no sizes selected from --sizes=" << sizes_csv << "\n";
    return 2;
  }

  obs::JsonEncoder json;
  json.BeginObject()
      .Member("schema", "homets.bench_pipeline")
      .Member("schema_version", kSchemaVersion)
      .Member("scenario", "full_pipeline")
      .Member("hardware_threads", bench::HardwareThreads())
      .Member("threads_used", threads_used)
      .Key("sizes")
      .BeginArray();
  for (const std::string& name : size_names) json.Value(name);
  json.EndArray()
      .Member("total_seconds", SecondsSince(start))
      .Key("entries")
      .BeginArray();
  for (const Entry& entry : entries) EncodeEntry(entry, threads_used, &json);
  json.EndArray().EndObject();

  std::ofstream out(json_path);
  out << json.str();
  if (!out) {
    std::cerr << "write failed: " << json_path << "\n";
    return 1;
  }
  std::cout << entries.size() << " pipeline entries -> " << json_path
            << "\n";
  return 0;
}
