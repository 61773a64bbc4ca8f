// csv_convert: CSV -> .homets compaction (`homets_cli convert --to homets`)
// of one simgen CSV per gateway through io::CompactCsvToHomets, in a closed
// loop (each operation converts every gateway once).
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "io/dataset.h"
#include "obs/metric_names.h"
#include "workloads.h"

namespace perfbench {

namespace hm = homets;

namespace {

std::vector<std::string> ListCsvInputs(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".csv") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Data rows of a CSV file (lines after the header).
size_t CsvDataRows(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  size_t lines = 0;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    lines += static_cast<size_t>(std::count(buf, buf + in.gcount(), '\n'));
  }
  return lines > 0 ? lines - 1 : 0;
}

std::string OutputPath(const std::string& out_dir, const std::string& csv) {
  return out_dir + "/" + std::filesystem::path(csv).stem().string() +
         ".homets";
}

bool SameSeries(const hm::ts::TimeSeries& a, const hm::ts::TimeSeries& b) {
  if (a.start_minute() != b.start_minute() ||
      a.step_minutes() != b.step_minutes() || a.size() != b.size()) {
    return false;
  }
  const auto& x = a.values();
  const auto& y = b.values();
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) != std::isnan(y[i])) return false;
    if (!std::isnan(x[i]) && std::memcmp(&x[i], &y[i], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// The trace read back from .homets must equal the trace read from the CSV:
/// device identities and every minute bit for bit (Missing where Missing).
bool SameTrace(const hm::simgen::GatewayTrace& a,
               const hm::simgen::GatewayTrace& b) {
  if (a.devices.size() != b.devices.size()) return false;
  for (size_t d = 0; d < a.devices.size(); ++d) {
    const auto& x = a.devices[d];
    const auto& y = b.devices[d];
    if (x.name != y.name || x.true_type != y.true_type ||
        x.reported_type != y.reported_type ||
        !SameSeries(x.incoming, y.incoming) ||
        !SameSeries(x.outgoing, y.outgoing)) {
      return false;
    }
  }
  return true;
}

hm::Result<hm::simgen::GatewayTrace> ReadTrace(const std::string& path) {
  HOMETS_ASSIGN_OR_RETURN(auto reader, hm::io::DatasetReader::Open(path));
  return reader.ReadGateway(0);
}

/// Perturbs one observed value (smoke-test hook for the round-trip gate).
void Perturb(hm::simgen::GatewayTrace* trace) {
  for (auto& device : trace->devices) {
    for (double& v : device.incoming.mutable_values()) {
      if (!std::isnan(v)) {
        v += 1.0;
        return;
      }
    }
  }
}

}  // namespace

RunResult RunCsvConvert(const RunOptions& opt) {
  RunResult result;
  const Sizes sizes = WorkloadSizes(opt.workload, opt.tiny);
  const std::vector<std::string> inputs = ListCsvInputs(opt.dir);
  if (inputs.empty()) {
    result.correct = false;
    result.mismatch = "inputs: no CSV files in " + opt.dir;
    return result;
  }
  std::vector<size_t> expected_rows;
  for (const auto& path : inputs) expected_rows.push_back(CsvDataRows(path));
  const std::string out_dir = opt.dir + "/out";

  // Set-up: enumerate the inputs, open each (lazy for CSV) and make the
  // output directory.
  SpeedScale scale(1);
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    for (const auto& path : ListCsvInputs(opt.dir)) {
      (void)hm::io::DatasetReader::Open(path);
    }
    ::mkdir(out_dir.c_str(), 0755);
  }) * scale.Next();

  const double gateways = static_cast<double>(inputs.size());
  OutputGate gate(opt.expect, opt.perturb_reference);
  OpSamples ops;
  // Per-file latency percentiles of each operation; the run reports their
  // medians, so a slow spell of the host moves one operation's figures.
  std::vector<double> file_p50, file_p99;
  size_t rows = 0, rejected = 0;
  const auto start = Clock::now();
  do {
    std::vector<std::string> converted;
    std::vector<double> op_file_ms;
    rows = 0;
    rejected = 0;
    const auto op_start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    for (size_t i = 0; i < inputs.size(); ++i) {
      const auto t0 = Clock::now();
      hm::io::IngestReport report;
      const auto stats = hm::io::CompactCsvToHomets(
          inputs[i], OutputPath(out_dir, inputs[i]), hm::io::ReadOptions{},
          &report);
      op_file_ms.push_back(SecondsSince(t0) * 1e3);
      ++result.attempted;
      rejected += report.SkippedTotal();
      if (!stats.ok() || stats->rows != expected_rows[i] ||
          report.SkippedTotal() > 0) {
        ++result.failed;
        if (result.mismatch.empty()) {
          result.mismatch =
              inputs[i] + ": " +
              (stats.ok() ? std::to_string(stats->rows) + " of " +
                                std::to_string(expected_rows[i]) +
                                " rows converted"
                          : stats.status().ToString());
        }
        continue;
      }
      rows += stats->rows;
      converted.push_back(std::to_string(stats->rows) + " rows, " +
                          std::to_string(stats->devices) + " devices\n");
    }
    const double wall = SecondsSince(op_start);
    const double cpu = ProcessCpuSeconds() - cpu_start;
    const double factor = scale.Next();
    ops.Add(wall, cpu, factor);
    file_p50.push_back(Quantile(op_file_ms, 0.50) * factor);
    file_p99.push_back(Quantile(op_file_ms, 0.99) * factor);
    // Sorted, so one reference serves every seed's file order.
    std::sort(converted.begin(), converted.end());
    std::string canonical;
    for (const auto& line : converted) canonical += line;
    gate.Check(canonical);
  } while (AnotherFits(start, ops.wall_s.back(), opt.seconds));

  // After timing: every output, read back, equals its source CSV read.
  size_t minutes = 0;
  std::vector<hm::simgen::GatewayTrace> sample;
  for (const auto& path : inputs) {
    auto source = ReadTrace(path);
    const auto converted = ReadTrace(OutputPath(out_dir, path));
    if (!source.ok() || !converted.ok()) {
      result.mismatch = path + ": cannot read back";
      break;
    }
    if (opt.perturb_reference) Perturb(&*source);
    if (!SameTrace(*source, *converted)) {
      result.mismatch = path + ": .homets read back differs from the CSV";
      break;
    }
    minutes += GatewayMinutes(*source);
    if (sample.size() < 2) sample.push_back(std::move(source).value());
  }
  result.output_digest = gate.digest();
  if (!gate.ok() && result.mismatch.empty()) result.mismatch = gate.mismatch();
  result.correct = result.mismatch.empty();
  uint64_t output_bytes = 0;
  for (const auto& path : inputs) output_bytes += FileBytes(OutputPath(out_dir, path));
  uint64_t input_bytes = 0;
  for (const auto& path : inputs) input_bytes += FileBytes(path);
  result.details = {{"gateways", gateways},
                    {"weeks", sizes.weeks},
                    {"minutes", static_cast<double>(minutes)},
                    {"rows", static_cast<double>(rows)},
                    {"input_bytes", static_cast<double>(input_bytes)},
                    {"output_bytes", static_cast<double>(output_bytes)},
                    {"operations", static_cast<double>(ops.wall_s.size())},
                    {"window_samples", gateways},
                    {"rows_rejected", static_cast<double>(rejected)}};
  // Traced spans are unscaled, so they are compared with unscaled CPU.
  const double untraced_cpu_ms = ops.RawCpuMsPer(gateways);

  if (!opt.trace) {
    MetricSet& m = result.metrics;
    m.Set("setup_s", setup_s);
    SetThroughputMetrics(ops, gateways, static_cast<double>(minutes),
                         static_cast<double>(rows), &m, &result.details);
    // One converted gateway file is the unit a caller waits for.
    m.Set("window_p50_ms", Median(file_p50));
    m.Set("window_p99_ms", Median(file_p99));
    return result;
  }

  // ---- Traced run: parse and write as separate layers ---------------------
  result.metrics = MetricSet(true);
  MetricSet& m = result.metrics;
  const std::string traced_dir = opt.dir + "/traced";
  ::mkdir(traced_dir.c_str(), 0755);
  SpanRecorder spans;
  std::vector<double> gateway_cpu_ms;
  uint64_t bytes_written = 0, bytes_read = 0, traced_bytes = 0;
  size_t traced_rows = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const int g = static_cast<int>(i);
    const std::string out = OutputPath(traced_dir, inputs[i]);
    const double cpu_start = ThreadCpuSeconds();
    spans.Time("gateway", g, [&] {
      const auto trace =
          spans.Time("io.csv_parse", g, [&] { return ReadTrace(inputs[i]); });
      if (!trace.ok()) return 0;
      for (const auto& device : trace->devices) traced_rows += DeviceRows(device);
      const uint64_t before = CounterValue(hm::obs::kStorageBytesWritten);
      spans.Time("storage.write", g, [&] {
        return hm::io::WriteGatewayFile(out, *trace, hm::io::InputFormat::kHomets);
      });
      bytes_written += CounterValue(hm::obs::kStorageBytesWritten) - before;
      return 0;
    });
    gateway_cpu_ms.push_back((ThreadCpuSeconds() - cpu_start) * 1e3);
    // Reading the output back is not part of a conversion: its own root.
    const uint64_t before = CounterValue(hm::obs::kStorageBytesRead);
    spans.Time("readback", g, [&] {
      return spans.Time("storage.read", g, [&] { return ReadTrace(out); });
    });
    bytes_read += CounterValue(hm::obs::kStorageBytesRead) - before;
    traced_bytes += FileBytes(out);
  }
  const auto totals = SummarizeSpans(spans.spans());
  const auto total_ns = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ns;
  };
  const double n_rows = static_cast<double>(traced_rows);
  m.Set("io.csv_parse_ns_per_row", total_ns("io.csv_parse") / n_rows);
  m.Set("io.rows_rejected", static_cast<double>(rejected));
  m.Set("storage.write_ns_per_row", total_ns("storage.write") / n_rows);
  m.Set("storage.bytes_written_per_row", static_cast<double>(bytes_written) / n_rows);
  m.Set("storage.read_ms_per_gateway", total_ns("storage.read") / 1e6 / gateways);
  m.Set("storage.bytes_read_per_gateway", static_cast<double>(bytes_read) / gateways);
  m.Set("storage.file_bytes_per_gateway", static_cast<double>(traced_bytes) / gateways);
  SetSelfTimes(spans.spans(), gateways, &m);
  const double layer_ns = total_ns("gateway") - totals.at("gateway").self_ns;
  m.Set("trace.span_coverage", layer_ns / 1e6 / gateways / untraced_cpu_ms);
  m.Set("trace.overhead_ms_per_gateway", Mean(gateway_cpu_ms) - untraced_cpu_ms);
  ProbeCorrelation(sample, &m);
  result.details["spans"] = static_cast<double>(spans.spans().size());
  result.details["traced_cpu_ms_per_gateway"] = Mean(gateway_cpu_ms);
  result.details["untraced_cpu_ms_per_gateway"] = untraced_cpu_ms;
  WriteSpans(opt.dir + "/spans.jsonl", spans.spans());
  return result;
}

}  // namespace perfbench
