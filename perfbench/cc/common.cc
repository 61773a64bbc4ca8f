#include "common.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <numeric>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

namespace {

/// Receives each kernel's result so no kernel can be optimized away.
volatile double g_calibration_sink = 0.0;

void SortKernel() {
  static const std::vector<double> kInput = [] {
    std::vector<double> values(100000);
    uint64_t x = 88172645463325252ull;
    for (double& v : values) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = static_cast<double>(x >> 11);
    }
    return values;
  }();
  std::vector<double> values = kInput;
  std::sort(values.begin(), values.end());
  g_calibration_sink = values[values.size() / 2];
}

void AllocKernel() {
  std::deque<std::vector<double>> queue;
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    std::vector<double> window(8, static_cast<double>(i));
    sum += window[3];
    queue.push_back(std::move(window));
    if (queue.size() > 500) queue.pop_front();
  }
  g_calibration_sink = sum;
}

/// Median seconds of 5 runs of `kernel` on each of `threads` threads at once.
double MedianSeconds(void (*kernel)(), int threads) {
  std::vector<std::vector<double>> samples(static_cast<size_t>(threads));
  const auto run = [&](size_t t) {
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = Clock::now();
      kernel();
      samples[t].push_back(SecondsSince(start));
    }
  };
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < samples.size(); ++t) helpers.emplace_back(run, t);
  run(0);
  for (auto& helper : helpers) helper.join();
  std::vector<double> all;
  for (const auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  return Median(std::move(all));
}

}  // namespace

double SpeedScale::Slowdown(int threads) {
  return std::sqrt(MedianSeconds(SortKernel, threads) / kReferenceSortSeconds *
                   MedianSeconds(AllocKernel, threads) /
                   kReferenceAllocSeconds);
}

double OpSamples::RawCpuMsPer(double gateways) const {
  std::vector<double> ms;
  for (const double cpu : cpu_s) ms.push_back(cpu * 1e3 / gateways);
  return Median(std::move(ms));
}

void SetThroughputMetrics(const OpSamples& ops, double gateways,
                          double minutes, double rows, MetricSet* metrics,
                          std::map<std::string, double>* details) {
  std::vector<double> gw_rate, cpu_ms, minute_rate, row_rate, raw_rate;
  for (size_t i = 0; i < ops.wall_s.size(); ++i) {
    const double wall = ops.wall_s[i] * ops.factor[i];
    gw_rate.push_back(gateways / wall);
    cpu_ms.push_back(ops.cpu_s[i] * ops.factor[i] * 1e3 / gateways);
    minute_rate.push_back(minutes / wall);
    row_rate.push_back(rows / wall);
    raw_rate.push_back(gateways / ops.wall_s[i]);
  }
  metrics->Set("gateways_per_s", Median(gw_rate));
  metrics->Set("cpu_ms_per_gateway", Median(cpu_ms));
  metrics->Set("minutes_per_s", Median(minute_rate));
  metrics->Set("rows_per_s", Median(row_rate));
  (*details)["raw_gateways_per_s"] = Median(raw_rate);
  (*details)["raw_cpu_ms_per_gateway"] = ops.RawCpuMsPer(gateways);
  (*details)["speed_factor_median"] = Median(ops.factor);
  (*details)["speed_factor_min"] = Quantile(ops.factor, 0.0);
  (*details)["speed_factor_max"] = Quantile(ops.factor, 1.0);
}

bool KnownWorkload(const std::string& workload) {
  return workload == "fleet_analyze" || workload == "stream_motifs" ||
         workload == "csv_convert";
}

Sizes WorkloadSizes(const std::string& workload, bool tiny) {
  // fleet_analyze: ROADMAP's headline fleet (48 gateways x 6 weeks) in 8
  // shards. stream_motifs: 40 x 4 weeks gives ~1000 daily windows, so p99
  // has ~10 samples beyond it per replay. csv_convert: 12 x 6 weeks of CSV
  // (~2.5 M rows).
  if (workload == "fleet_analyze") return tiny ? Sizes{6, 3, 2} : Sizes{48, 6, 8};
  if (workload == "stream_motifs") return tiny ? Sizes{4, 2, 0} : Sizes{40, 4, 0};
  return tiny ? Sizes{2, 2, 0} : Sizes{12, 6, 0};
}

const std::vector<std::pair<std::string, std::string>>& EndToEndCatalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"gateways_per_s", "1/s"},
      {"cpu_ms_per_gateway", "ms"},
      {"minutes_per_s", "1/s"},
      {"rows_per_s", "1/s"},
      {"window_p50_ms", "ms"},
      {"window_p99_ms", "ms"},
  };
  return kCatalog;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"storage.read_ms_per_gateway", "ms"},
      {"storage.bytes_read_per_gateway", "bytes"},
      {"storage.file_bytes_per_gateway", "bytes"},
      {"storage.write_ns_per_row", "ns"},
      {"storage.bytes_written_per_row", "bytes"},
      {"io.csv_parse_ns_per_row", "ns"},
      {"io.rows_rejected", "count"},
      {"background.active_aggregate_ms_per_gateway", "ms"},
      {"background.estimates_per_device_dir", "count"},
      {"dominance.ms_per_device", "ms"},
      {"stationarity.ms_per_gateway", "ms"},
      {"motif.discover_ms_per_gateway", "ms"},
      {"motif.cache_hit_ratio", "ratio"},
      {"streaming.ingest_ns_per_minute", "ns"},
      {"streaming.add_window_ms_mean", "ms"},
      {"streaming.add_window_growth", "ratio"},
      {"streaming.add_window_first10_ms", "ms"},
      {"streaming.add_window_last10_ms", "ms"},
      {"streaming.windows_retained", "count"},
      {"correlation.prepare_us.long", "us"},
      {"correlation.pearson_us.long", "us"},
      {"correlation.spearman_us.long", "us"},
      {"correlation.kendall_us.long", "us"},
      {"correlation.prepare_us.short", "us"},
      {"correlation.pearson_us.short", "us"},
      {"correlation.spearman_us.short", "us"},
      {"correlation.kendall_us.short", "us"},
      {"fleet.parallel_efficiency", "ratio"},
      {"fleet.shard_ms_max_over_median", "ratio"},
      {"fleet.checkpoint_write_ms", "ms"},
      {"fleet.checkpoint_read_ms", "ms"},
      {"breakdown.active_aggregate_ms_per_gateway", "ms"},
      {"breakdown.device_background_ms_per_gateway", "ms"},
      {"breakdown.coverage_of_profile", "ratio"},
      {"self_ms.gateway", "ms"},
      {"self_ms.storage.read", "ms"},
      {"self_ms.io.csv_parse", "ms"},
      {"self_ms.storage.write", "ms"},
      {"self_ms.core.profile_gateway", "ms"},
      {"self_ms.background.active_aggregate", "ms"},
      {"self_ms.ts.daily_windows", "ms"},
      {"self_ms.motif.discover", "ms"},
      {"self_ms.fleet.zipf_bins", "ms"},
      {"self_ms.streaming.ingest", "ms"},
      {"self_ms.streaming.add_window", "ms"},
      {"trace.span_coverage", "ratio"},
      {"trace.overhead_ms_per_gateway", "ms"},
  };
  return kCatalog;
}

MetricSet::MetricSet(bool per_layer)
    : catalog_(per_layer ? PerLayerCatalog() : EndToEndCatalog()) {}

void MetricSet::Set(const std::string& name, double value) {
  const bool known =
      std::any_of(catalog_.begin(), catalog_.end(),
                  [&](const auto& entry) { return entry.first == name; });
  if (!known) {
    std::cerr << "perfbench: metric '" << name << "' is not in the catalog\n";
    std::exit(3);
  }
  values_[name] = value;
}

void MetricSet::ZeroUnset() {
  for (const auto& [name, unit] : catalog_) values_.emplace(name, 0.0);
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (const auto& [name, unit] : catalog_) {
    const auto it = values_.find(name);
    if (it == values_.end() || !std::isfinite(it->second)) {
      std::cerr << "perfbench: metric '" << name << "' was not measured\n";
      std::exit(3);
    }
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(it->second) +
           ", \"unit\": " + JsonString(unit) + "}";
  }
  return out + "}";
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

OutputGate::OutputGate(std::string expect, bool perturb)
    : expect_(std::move(expect)), perturb_(perturb) {}

void OutputGate::Check(const std::string& canonical_output) {
  const std::string digest = Hex64(Fnv1a64(canonical_output));
  if (digest_.empty()) {
    digest_ = digest;
    first_output_ = canonical_output;
    std::string reference = expect_.empty() ? digest : expect_;
    if (perturb_) reference[0] = reference[0] == '0' ? '1' : '0';
    if (digest != reference) {
      mismatch_ = "output digest " + digest + " != reference " + reference;
    }
  } else if (canonical_output != first_output_ && mismatch_.empty()) {
    mismatch_ =
        "output " + digest + " differs from the first operation's " + digest_;
  }
}

}  // namespace perfbench
