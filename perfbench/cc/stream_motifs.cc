// stream_motifs: the `homets_cli stream` replay — every gateway of a .homets
// fleet is read, reduced to its active aggregate and fed minute by minute
// through WindowAssembler (daily windows, 3 h bins) into one
// StreamingMotifMiner with the CLI's default 10 000-window horizon. Closed
// loop: one producer feeds each minute after the previous call returns.
#include <algorithm>
#include <chrono>

#include "core/background.h"
#include "core/streaming.h"
#include "io/dataset.h"
#include "obs/metric_names.h"
#include "workloads.h"

namespace perfbench {

namespace hm = homets;

namespace {

// The CLI's `stream --period daily` parameters.
constexpr int64_t kBinMinutes = 180;
constexpr size_t kHorizonWindows = 10000;

/// Runs `fn` under a span when `rec` is set, else just runs it.
template <typename F>
auto Timed(SpanRecorder* rec, const char* name, int gateway, F&& fn) {
  if (rec == nullptr) return fn();
  return rec->Time(name, gateway, std::forward<F>(fn));
}

struct Replay {
  size_t minutes = 0;
  size_t windows_added = 0;   ///< AddWindow calls
  size_t windows_failed = 0;  ///< AddWindow calls that returned an error
  size_t windows_retained = 0;
  std::vector<double> window_ms;  ///< closing minute fed -> AddWindow returned
  std::vector<double> gateway_cpu_ms;
  std::string canonical;  ///< windows streamed + the motif list
  std::string problem;
};

/// One full replay of the file, as RunStream in homets_cli does it.
Replay RunReplay(hm::io::DatasetReader* reader, SpanRecorder* rec) {
  Replay replay;
  auto assembler =
      hm::core::WindowAssembler::Make(hm::ts::kMinutesPerDay, kBinMinutes, 0);
  if (!assembler.ok()) {
    replay.problem = assembler.status().ToString();
    return replay;
  }
  hm::core::StreamingMotifMiner miner(hm::core::MotifOptions{},
                                      kHorizonWindows);
  size_t windows_streamed = 0;
  const auto add = [&](int id, const hm::ts::TimeSeries& window) {
    ++replay.windows_added;
    const auto added = Timed(rec, "streaming.add_window", id,
                             [&] { return miner.AddWindow(id, window); });
    if (added.ok()) {
      ++windows_streamed;
    } else {
      ++replay.windows_failed;
    }
  };
  for (size_t g = 0; g < reader->gateway_count(); ++g) {
    const int id = static_cast<int>(g);
    const double cpu_start = ThreadCpuSeconds();
    const auto feed_gateway = [&] {
      const auto trace = Timed(rec, "storage.read", id,
                               [&] { return reader->ReadGateway(g); });
      if (!trace.ok()) {
        replay.problem = trace.status().ToString();
        return;
      }
      const auto active = Timed(rec, "background.active_aggregate", id,
                                [&] { return hm::core::ActiveAggregate(*trace); });
      Timed(rec, "streaming.ingest", id, [&] {
        const int64_t begin = active.start_minute();
        const int64_t end = active.EndMinute();
        for (int64_t m = begin; m <= end; ++m) {
          // The final feed (a Missing at EndMinute) closes the gateway's
          // last window, as the CLI does before moving to the next trace.
          const double value = m < end
                                   ? active[static_cast<size_t>(m - begin)]
                                   : hm::ts::TimeSeries::Missing();
          // Only a day boundary (or the final feed) can close a window, so
          // only those minutes are timed.
          const bool closing = m % hm::ts::kMinutesPerDay == 0 || m == end;
          const auto t0 = closing ? Clock::now() : Clock::time_point{};
          const auto completed = assembler->Ingest(id, m, value);
          if (m < end) ++replay.minutes;
          if (!completed.ok() || completed->empty()) continue;
          for (const auto& window : *completed) add(id, window);
          if (closing) {
            const double ms =
                std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
            replay.window_ms.insert(replay.window_ms.end(), completed->size(),
                                    ms);
          }
        }
        return 0;
      });
    };
    if (rec == nullptr) {
      feed_gateway();
    } else {
      rec->Time("gateway", id, [&] {
        feed_gateway();
        return 0;
      });
    }
    replay.gateway_cpu_ms.push_back((ThreadCpuSeconds() - cpu_start) * 1e3);
  }
  for (auto& [id, window] : assembler->Flush()) add(id, window);
  replay.windows_retained = miner.windows_retained();

  const auto motifs = miner.CurrentMotifs();
  const auto& provenance = miner.provenance();
  std::string& out = replay.canonical;
  out = "windows streamed " + std::to_string(windows_streamed) + "\n";
  for (const auto& motif : motifs) {
    out += "support " + std::to_string(motif.support()) + ":";
    for (const size_t member : motif.members) {
      out += ' ';
      out += std::to_string(member);
      out += '@';
      out += std::to_string(provenance[member].gateway_id);
      out += '/';
      out += std::to_string(provenance[member].start_minute);
    }
    out += '\n';
  }
  return replay;
}

}  // namespace

RunResult RunStreamMotifs(const RunOptions& opt) {
  RunResult result;
  const Sizes sizes = WorkloadSizes(opt.workload, opt.tiny);
  const std::string path = opt.dir + "/fleet.homets";

  // Input sizes and the kernel-probe sample, outside every timed region.
  size_t devices = 0, rows = 0;
  std::vector<hm::simgen::GatewayTrace> sample;
  {
    auto reader = hm::io::DatasetReader::Open(path);
    if (!reader.ok()) {
      result.correct = false;
      result.mismatch = "inputs: " + reader.status().ToString();
      return result;
    }
    for (size_t g = 0; g < reader->gateway_count(); ++g) {
      auto trace = reader->ReadGateway(g);
      if (!trace.ok()) continue;
      devices += trace->devices.size();
      for (const auto& device : trace->devices) rows += DeviceRows(device);
      if (sample.size() < 2) sample.push_back(std::move(trace).value());
    }
  }

  // Set-up: open the input and build the assembler and the miner.
  SpeedScale scale(1);
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    auto reader = hm::io::DatasetReader::Open(path);
    auto assembler =
        hm::core::WindowAssembler::Make(hm::ts::kMinutesPerDay, kBinMinutes, 0);
    hm::core::StreamingMotifMiner miner(hm::core::MotifOptions{},
                                        kHorizonWindows);
    (void)reader;
    (void)assembler;
  }) * scale.Next();

  auto reader = hm::io::DatasetReader::Open(path);
  if (!reader.ok()) {
    result.correct = false;
    result.mismatch = "inputs: " + reader.status().ToString();
    return result;
  }
  const double gateways = static_cast<double>(reader->gateway_count());
  OutputGate gate(opt.expect, opt.perturb_reference);
  OpSamples ops;
  // Window latency percentiles of each replay; the run reports their medians,
  // so a slow spell of the host moves one replay's figures, not the tail.
  std::vector<double> window_p50, window_p99;
  size_t windows_per_replay = 0;
  size_t minutes = 0;
  const uint64_t estimates_before =
      CounterValue(hm::obs::kBackgroundThresholdsEstimated);
  size_t replays = 0;
  const auto start = Clock::now();
  do {
    const auto op_start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    const Replay replay = RunReplay(&*reader, nullptr);
    const double wall = SecondsSince(op_start);
    const double cpu = ProcessCpuSeconds() - cpu_start;
    const double factor = scale.Next();
    ops.Add(wall, cpu, factor);
    ++replays;
    result.attempted += replay.windows_added;
    result.failed += replay.windows_failed;
    if (!replay.problem.empty() && result.mismatch.empty()) {
      result.mismatch = replay.problem;
    }
    gate.Check(replay.canonical);
    minutes = replay.minutes;
    windows_per_replay = replay.window_ms.size();
    window_p50.push_back(Quantile(replay.window_ms, 0.50) * factor);
    window_p99.push_back(Quantile(replay.window_ms, 0.99) * factor);
  } while (AnotherFits(start, ops.wall_s.back(), opt.seconds));
  const double estimates =
      static_cast<double>(CounterValue(hm::obs::kBackgroundThresholdsEstimated) -
                          estimates_before) /
      static_cast<double>(replays);

  result.output_digest = gate.digest();
  if (!gate.ok() && result.mismatch.empty()) result.mismatch = gate.mismatch();
  result.correct = result.mismatch.empty();
  result.details = {{"gateways", gateways},
                    {"weeks", sizes.weeks},
                    {"devices", static_cast<double>(devices)},
                    {"minutes", static_cast<double>(minutes)},
                    {"rows", static_cast<double>(rows)},
                    {"input_bytes", static_cast<double>(FileBytes(path))},
                    {"operations", static_cast<double>(replays)},
                    {"window_samples",
                     static_cast<double>(windows_per_replay)}};

  // Traced spans are unscaled, so they are compared with unscaled CPU.
  const double untraced_cpu_ms = ops.RawCpuMsPer(gateways);

  if (!opt.trace) {
    MetricSet& m = result.metrics;
    m.Set("setup_s", setup_s);
    SetThroughputMetrics(ops, gateways, static_cast<double>(minutes),
                         static_cast<double>(rows), &m, &result.details);
    m.Set("window_p50_ms", Median(window_p50));
    m.Set("window_p99_ms", Median(window_p99));
    return result;
  }

  // ---- Traced run ---------------------------------------------------------
  result.metrics = MetricSet(true);
  MetricSet& m = result.metrics;
  SpanRecorder spans;
  const uint64_t bytes_read_before = CounterValue(hm::obs::kStorageBytesRead);
  const Replay traced = RunReplay(&*reader, &spans);
  const double bytes_read = static_cast<double>(
      CounterValue(hm::obs::kStorageBytesRead) - bytes_read_before);
  gate.Check(traced.canonical);
  if (!gate.ok() && result.mismatch.empty()) result.mismatch = gate.mismatch();
  result.correct = result.mismatch.empty();

  const auto totals = SummarizeSpans(spans.spans());
  const auto total_ms = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ns / 1e6;
  };
  std::vector<double> add_ms;
  for (const Span& span : spans.spans()) {
    if (span.name == "streaming.add_window") {
      add_ms.push_back(static_cast<double>(span.duration_ns()) / 1e6);
    }
  }
  // Mean AddWindow time over the first and the last 10% of the windows.
  const size_t tenth = std::min(add_ms.size(), std::max<size_t>(1, add_ms.size() / 10));
  const double first10 = Mean({add_ms.begin(), add_ms.begin() + tenth});
  const double last10 = Mean({add_ms.end() - tenth, add_ms.end()});
  m.Set("storage.read_ms_per_gateway", total_ms("storage.read") / gateways);
  m.Set("storage.bytes_read_per_gateway", bytes_read / gateways);
  m.Set("storage.file_bytes_per_gateway",
        static_cast<double>(FileBytes(path)) / gateways);
  m.Set("background.active_aggregate_ms_per_gateway",
        total_ms("background.active_aggregate") / gateways);
  m.Set("background.estimates_per_device_dir",
        estimates / (static_cast<double>(devices) * 2.0));
  m.Set("streaming.ingest_ns_per_minute",
        totals.at("streaming.ingest").self_ns /
            static_cast<double>(traced.minutes));
  m.Set("streaming.add_window_ms_mean", Mean(add_ms));
  m.Set("streaming.add_window_first10_ms", first10);
  m.Set("streaming.add_window_last10_ms", last10);
  m.Set("streaming.add_window_growth", last10 / first10);
  m.Set("streaming.windows_retained",
        static_cast<double>(traced.windows_retained));
  SetSelfTimes(spans.spans(), gateways, &m);
  const double layer_ms =
      total_ms("gateway") - totals.at("gateway").self_ns / 1e6;
  m.Set("trace.span_coverage", layer_ms / gateways / untraced_cpu_ms);
  m.Set("trace.overhead_ms_per_gateway",
        Mean(traced.gateway_cpu_ms) - untraced_cpu_ms);
  ProbeCorrelation(sample, &m);
  result.details["spans"] = static_cast<double>(spans.spans().size());
  result.details["traced_cpu_ms_per_gateway"] = Mean(traced.gateway_cpu_ms);
  result.details["untraced_cpu_ms_per_gateway"] = untraced_cpu_ms;
  WriteSpans(opt.dir + "/spans.jsonl", spans.spans());
  return result;
}

}  // namespace perfbench
