// fleet_analyze: `homets_cli analyze` over one simgen .homets fleet —
// FleetOrchestrator::Analyze with 8 shards on min(4, nproc) threads and no
// checkpointing, in a closed loop (each operation analyzes the whole fleet).
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "core/background.h"
#include "core/dominance.h"
#include "core/motif.h"
#include "core/profiling.h"
#include "core/stationarity.h"
#include "fleet/checkpoint.h"
#include "fleet/orchestrator.h"
#include "io/dataset.h"
#include "obs/metric_names.h"
#include "workloads.h"

namespace perfbench {

namespace hm = homets;

namespace {

struct FleetSurvey {
  size_t gateways = 0;
  size_t devices = 0;
  size_t minutes = 0;
  size_t rows = 0;
  std::vector<hm::simgen::GatewayTrace> sample;  ///< for the kernel probe
};

hm::Result<FleetSurvey> Survey(const std::string& path, size_t sample_size) {
  HOMETS_ASSIGN_OR_RETURN(auto reader, hm::io::DatasetReader::Open(path));
  FleetSurvey survey;
  survey.gateways = reader.gateway_count();
  for (size_t g = 0; g < survey.gateways; ++g) {
    HOMETS_ASSIGN_OR_RETURN(auto trace, reader.ReadGateway(g));
    survey.devices += trace.devices.size();
    survey.minutes += GatewayMinutes(trace);
    for (const auto& device : trace.devices) survey.rows += DeviceRows(device);
    if (survey.sample.size() < sample_size) {
      survey.sample.push_back(std::move(trace));
    }
  }
  return survey;
}

/// Everything the fleet report is checked on: not degraded, every planned
/// gateway analyzed, the rendered figures, and each gateway's summary (the
/// figures aggregate them, so changes that cancel out would slip by). The
/// summaries are sorted without their position, so the text does not
/// depend on the seed's gateway order and one reference serves every seed.
std::string CanonicalReport(const hm::fleet::FleetReport& report,
                            std::string* problem) {
  if (report.degraded || !report.quarantined.empty()) {
    *problem = "fleet report is degraded";
  } else if (report.gateways.size() !=
             static_cast<size_t>(report.n_gateways)) {
    *problem = "fleet report covers " +
               std::to_string(report.gateways.size()) + " of " +
               std::to_string(report.n_gateways) + " gateways";
  }
  std::vector<std::string> lines;
  for (const auto& g : report.gateways) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "eligible=%d devices=%u dominant=%u residents=%u "
                  "stationary=%d quiet=%d evening=%a tau=%u/%u/%u daily=%u/%u\n",
                  g.eligible, g.devices_observed, g.dominant_count,
                  g.min_residents, g.weekly_stationary, g.quietest_slot,
                  g.evening_share, g.tau_small, g.tau_medium, g.tau_large,
                  g.daily_windows, g.daily_motifs);
    lines.emplace_back(line);
  }
  std::sort(lines.begin(), lines.end());
  std::string out = hm::fleet::FormatFleetReport(report);
  for (const auto& line : lines) out += line;
  return out;
}

// Daily motif parameters of the fleet pipeline (fleet/shard.cc): 3 h bins,
// midnight-anchored daily windows.
constexpr int64_t kDailyBinMinutes = 180;

/// The traced pass: the per-gateway pipeline of ShardRunner::RunShard,
/// made call by call from here so that each layer gets a span, then
/// the labelled breakdown of ProfileGateway's own calls on the same trace.
void TraceShard(const hm::fleet::FleetInputs& inputs,
                const hm::fleet::ShardPlan& plan, SpanRecorder* rec,
                std::vector<double>* gateway_cpu_ms) {
  const hm::core::ProfilingOptions profiling;
  std::map<size_t, hm::io::DatasetReader> readers;
  for (int g = plan.begin_gateway; g < plan.end_gateway; ++g) {
    const auto& ref = inputs.gateways[static_cast<size_t>(g)];
    const double cpu_start = ThreadCpuSeconds();
    hm::simgen::GatewayTrace trace;
    rec->Time("gateway", g, [&] {
      trace = rec->Time("storage.read", g, [&] {
        auto it = readers.find(ref.input_index);
        if (it == readers.end()) {
          it = readers
                   .emplace(ref.input_index,
                            hm::io::DatasetReader::Open(
                                inputs.paths[ref.input_index])
                                .value())
                   .first;
        }
        return it->second.ReadGateway(ref.gateway_index).value();
      });
      rec->Time("core.profile_gateway", g,
                [&] { return hm::core::ProfileGateway(trace, profiling); });
      const auto active = rec->Time("background.active_aggregate", g, [&] {
        return hm::core::ActiveAggregate(trace);
      });
      const auto windows = rec->Time("ts.daily_windows", g, [&] {
        const auto binned = hm::ts::Aggregate(active, kDailyBinMinutes, 0,
                                              hm::ts::AggKind::kSum);
        return binned.ok() ? hm::ts::SliceWindows(*binned,
                                                  hm::ts::kMinutesPerDay, 0)
                           : std::vector<hm::ts::TimeSeries>{};
      });
      if (windows.size() >= 2) {
        rec->Time("motif.discover", g, [&] {
          return hm::core::MotifDiscovery().Discover(windows);
        });
      }
      rec->Time("fleet.zipf_bins", g, [&] {
        std::vector<uint64_t> bins(hm::fleet::kZipfBins, 0);
        const auto aggregate = trace.AggregateTraffic();
        for (const double v : aggregate.values()) {
          if (v > 0.0) ++bins[hm::fleet::ZipfBinIndex(v)];
        }
        return bins;
      });
    });
    gateway_cpu_ms->push_back((ThreadCpuSeconds() - cpu_start) * 1e3);

    // Breakdown of ProfileGateway (not observable from outside): the calls
    // it makes, in its order, with its options.
    rec->Time("breakdown.profile_gateway", g, [&] {
      const auto active = rec->Time("breakdown.active_aggregate", g, [&] {
        return hm::core::ActiveAggregate(trace);
      });
      rec->Time("breakdown.dominance", g, [&] {
        return hm::core::FindDominantDevices(trace, profiling.dominance);
      });
      rec->Time("breakdown.stationarity", g, [&] {
        const auto binned =
            hm::ts::Aggregate(active, profiling.aggregation_minutes, 0,
                              hm::ts::AggKind::kSum);
        if (!binned.ok()) return false;
        const auto weeks =
            hm::ts::SliceWindows(*binned, hm::ts::kMinutesPerWeek, 0);
        return weeks.size() >= 2 &&
               hm::core::CheckStrongStationarity(weeks, profiling.stationarity)
                   .ok();
      });
      rec->Time("breakdown.device_background", g, [&] {
        size_t estimated = 0;
        for (const auto& device : trace.devices) {
          estimated += hm::core::EstimateDeviceBackground(device).ok();
        }
        return estimated;
      });
    });
  }
}

/// Runs `fn(shard_index, worker)` for every shard on `threads` workers.
template <typename F>
void ForEachShard(size_t shards, int threads, F&& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (size_t s = next++; s < shards; s = next++) fn(s, w);
    });
  }
  for (auto& worker : workers) worker.join();
}

}  // namespace

RunResult RunFleetAnalyze(const RunOptions& opt) {
  RunResult result;
  const Sizes sizes = WorkloadSizes(opt.workload, opt.tiny);
  const std::string path = opt.dir + "/fleet.homets";
  const auto survey = Survey(path, 2);
  if (!survey.ok()) {
    result.correct = false;
    result.mismatch = "inputs: " + survey.status().ToString();
    return result;
  }
  const double gateways = static_cast<double>(survey->gateways);

  hm::fleet::FleetOptions options;
  options.n_shards = sizes.shards;
  options.threads = opt.threads;

  // Set-up: enumerate the inputs (open + footer parse) and build the
  // orchestrator, as `analyze` does before its first shard runs.
  SpeedScale scale(opt.threads);
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    const auto inputs = hm::fleet::EnumerateFleetInputs({path}, options.dataset);
    hm::fleet::FleetOrchestrator orchestrator({path}, options);
    (void)inputs;
  }) * scale.Next();

  hm::fleet::FleetOrchestrator orchestrator({path}, options);
  OutputGate gate(opt.expect, opt.perturb_reference);
  OpSamples ops;
  std::vector<double> wall_ms, efficiency;
  const uint64_t estimates_before =
      CounterValue(hm::obs::kBackgroundThresholdsEstimated);
  const auto start = Clock::now();
  double wall = 0.0;
  do {
    const auto op_start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    const auto report = orchestrator.Analyze();
    wall = SecondsSince(op_start);
    const double cpu = ProcessCpuSeconds() - cpu_start;
    const double factor = scale.Next();
    ++result.attempted;
    if (!report.ok()) {
      ++result.failed;
      if (result.mismatch.empty()) result.mismatch = report.status().ToString();
      continue;
    }
    std::string problem;
    const std::string canonical = CanonicalReport(*report, &problem);
    if (!problem.empty() && result.mismatch.empty()) result.mismatch = problem;
    gate.Check(canonical);
    ops.Add(wall, cpu, factor);
    wall_ms.push_back(wall * factor * 1e3);
    efficiency.push_back(cpu / (wall * opt.threads));
  } while (AnotherFits(start, wall, opt.seconds));
  const double estimates =
      static_cast<double>(CounterValue(hm::obs::kBackgroundThresholdsEstimated) -
                          estimates_before) /
      static_cast<double>(result.attempted);

  result.output_digest = gate.digest();
  if (!gate.ok() && result.mismatch.empty()) result.mismatch = gate.mismatch();
  result.correct = result.mismatch.empty();
  result.details = {{"gateways", gateways},
                    {"weeks", sizes.weeks},
                    {"shards", sizes.shards},
                    {"devices", static_cast<double>(survey->devices)},
                    {"minutes", static_cast<double>(survey->minutes)},
                    {"rows", static_cast<double>(survey->rows)},
                    {"input_bytes", static_cast<double>(FileBytes(path))},
                    {"operations", static_cast<double>(ops.wall_s.size())}};
  // Traced spans are unscaled, so they are compared with unscaled CPU.
  const double untraced_cpu_ms = ops.RawCpuMsPer(gateways);

  if (!opt.trace) {
    MetricSet& m = result.metrics;
    m.Set("setup_s", setup_s);
    SetThroughputMetrics(ops, gateways, static_cast<double>(survey->minutes),
                         static_cast<double>(survey->rows), &m,
                         &result.details);
    // A fleet report is delivered whole: one "window" is one Analyze call.
    m.Set("window_p50_ms", Median(wall_ms));
    m.Set("window_p99_ms", Quantile(wall_ms, 0.99));
    return result;
  }

  // ---- Traced run ---------------------------------------------------------
  result.metrics = MetricSet(true);
  MetricSet& m = result.metrics;
  const auto inputs = hm::fleet::EnumerateFleetInputs({path}, options.dataset);
  const auto plans = hm::fleet::ShardPlanner::Plan(
      static_cast<int>(inputs->gateways.size()), sizes.shards);
  const size_t n_shards = plans->size();

  const uint64_t bytes_read_before = CounterValue(hm::obs::kStorageBytesRead);
  const uint64_t hits_before = CounterValue(hm::obs::kMotifCacheHits);
  const uint64_t misses_before = CounterValue(hm::obs::kMotifCacheMisses);
  std::vector<SpanRecorder> recorders;
  for (int w = 0; w < opt.threads; ++w) recorders.emplace_back(w);
  std::vector<std::vector<double>> shard_gateway_cpu(n_shards);
  ForEachShard(n_shards, opt.threads, [&](size_t s, int w) {
    TraceShard(*inputs, (*plans)[s], &recorders[static_cast<size_t>(w)],
               &shard_gateway_cpu[s]);
  });
  SpanRecorder spans;
  for (const auto& r : recorders) spans.Merge(r);
  const double bytes_read = static_cast<double>(
      CounterValue(hm::obs::kStorageBytesRead) - bytes_read_before);
  const double hits =
      static_cast<double>(CounterValue(hm::obs::kMotifCacheHits) - hits_before);
  const double misses = static_cast<double>(
      CounterValue(hm::obs::kMotifCacheMisses) - misses_before);
  std::vector<double> traced_gateway_cpu;
  for (const auto& v : shard_gateway_cpu) {
    traced_gateway_cpu.insert(traced_gateway_cpu.end(), v.begin(), v.end());
  }

  // ShardRunner::RunShard per shard, then the checkpoint round trip of each
  // shard result (WriteShardCheckpoint renames but does not fsync).
  const hm::fleet::ShardRunner runner(&*inputs, options.dataset);
  std::vector<hm::fleet::ShardResult> shard_results(n_shards);
  std::vector<double> shard_ms(n_shards, 0.0);
  ForEachShard(n_shards, opt.threads, [&](size_t s, int) {
    const auto t0 = Clock::now();
    auto shard = runner.RunShard((*plans)[s], nullptr);
    shard_ms[s] = SecondsSince(t0) * 1e3;
    if (shard.ok()) shard_results[s] = std::move(shard).value();
  });
  const std::string ckpt_dir = opt.dir + "/checkpoints";
  ::mkdir(ckpt_dir.c_str(), 0755);
  const uint64_t fingerprint =
      hm::fleet::FleetFingerprint(*inputs, sizes.shards, "homets");
  std::vector<double> write_ms, read_ms;
  hm::fleet::FleetReport merged;
  merged.n_gateways = static_cast<int>(inputs->gateways.size());
  merged.n_shards = static_cast<int>(n_shards);
  merged.zipf_bins.assign(hm::fleet::kZipfBins, 0);
  for (size_t s = 0; s < n_shards; ++s) {
    const auto t0 = Clock::now();
    const auto written =
        hm::fleet::WriteShardCheckpoint(ckpt_dir, shard_results[s], fingerprint);
    write_ms.push_back(SecondsSince(t0) * 1e3);
    const auto t1 = Clock::now();
    const auto loaded = hm::fleet::ReadShardCheckpoint(
        ckpt_dir, static_cast<int>(s), fingerprint);
    read_ms.push_back(SecondsSince(t1) * 1e3);
    if (!written.ok() || !loaded.ok()) {
      if (result.mismatch.empty()) {
        result.mismatch =
            "checkpoint round trip failed for shard " + std::to_string(s);
      }
      continue;
    }
    merged.gateways.insert(merged.gateways.end(), loaded->gateways.begin(),
                           loaded->gateways.end());
    for (size_t b = 0; b < hm::fleet::kZipfBins; ++b) {
      merged.zipf_bins[b] += loaded->zipf_bins[b];
    }
    merged.values_binned += loaded->values_binned;
  }
  // The shards, run and checkpointed one by one, must merge into the same
  // report as Analyze.
  std::string problem;
  gate.Check(CanonicalReport(merged, &problem));
  if (!problem.empty() && result.mismatch.empty()) result.mismatch = problem;
  if (!gate.ok() && result.mismatch.empty()) result.mismatch = gate.mismatch();
  result.correct = result.mismatch.empty();

  const auto totals = SummarizeSpans(spans.spans());
  const auto total_ms = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ns / 1e6;
  };
  const double devices = static_cast<double>(survey->devices);
  m.Set("storage.read_ms_per_gateway", total_ms("storage.read") / gateways);
  m.Set("storage.bytes_read_per_gateway", bytes_read / gateways);
  m.Set("storage.file_bytes_per_gateway",
        static_cast<double>(FileBytes(path)) / gateways);
  m.Set("background.active_aggregate_ms_per_gateway",
        total_ms("background.active_aggregate") / gateways);
  m.Set("background.estimates_per_device_dir", estimates / (devices * 2.0));
  m.Set("dominance.ms_per_device", total_ms("breakdown.dominance") / devices);
  m.Set("stationarity.ms_per_gateway",
        total_ms("breakdown.stationarity") / gateways);
  m.Set("motif.discover_ms_per_gateway", total_ms("motif.discover") / gateways);
  m.Set("motif.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  m.Set("fleet.parallel_efficiency", Median(efficiency));
  m.Set("fleet.shard_ms_max_over_median",
        Quantile(shard_ms, 1.0) / Median(shard_ms));
  m.Set("fleet.checkpoint_write_ms", Mean(write_ms));
  m.Set("fleet.checkpoint_read_ms", Mean(read_ms));
  m.Set("breakdown.active_aggregate_ms_per_gateway",
        total_ms("breakdown.active_aggregate") / gateways);
  m.Set("breakdown.device_background_ms_per_gateway",
        total_ms("breakdown.device_background") / gateways);
  m.Set("breakdown.coverage_of_profile",
        (total_ms("breakdown.active_aggregate") +
         total_ms("breakdown.dominance") + total_ms("breakdown.stationarity") +
         total_ms("breakdown.device_background")) /
            total_ms("core.profile_gateway"));
  SetSelfTimes(spans.spans(), gateways, &m);
  const double layer_ms = total_ms("gateway") - totals.at("gateway").self_ns / 1e6;
  m.Set("trace.span_coverage", layer_ms / gateways / untraced_cpu_ms);
  m.Set("trace.overhead_ms_per_gateway",
        Mean(traced_gateway_cpu) - untraced_cpu_ms);
  ProbeCorrelation(survey->sample, &m);
  result.details["spans"] = static_cast<double>(spans.spans().size());
  result.details["traced_cpu_ms_per_gateway"] = Mean(traced_gateway_cpu);
  result.details["untraced_cpu_ms_per_gateway"] = untraced_cpu_ms;
  WriteSpans(opt.dir + "/spans.jsonl", spans.spans());
  return result;
}

}  // namespace perfbench
