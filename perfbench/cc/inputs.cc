#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "io/dataset.h"
#include "obs/metrics.h"
#include "simgen/fleet.h"
#include "storage/homets_format.h"
#include "workloads.h"

namespace perfbench {

std::vector<int> GatewayOrder(int n, uint64_t seed) {
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
  uint64_t state = seed;
  for (size_t i = order.size(); i > 1; --i) {
    // splitmix64: the same order for a seed on every platform.
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::swap(order[i - 1], order[z % i]);
  }
  return order;
}

int GenerateInputs(const std::string& workload, uint64_t seed, bool tiny,
                   const std::string& dir) {
  const Sizes sizes = WorkloadSizes(workload, tiny);
  homets::simgen::SimConfig config;
  config.n_gateways = sizes.gateways;
  config.weeks = sizes.weeks;
  config.seed = kPopulationSeed;
  config.surveyed_gateways = std::min(config.surveyed_gateways, sizes.gateways);
  const homets::simgen::FleetGenerator generator(config);
  const auto fail = [](const homets::Status& status) {
    std::cerr << "generate: " << status.ToString() << "\n";
    return 1;
  };
  std::vector<int> order = GatewayOrder(sizes.gateways, seed);
  if (workload != "csv_convert") std::sort(order.begin(), order.end());
  // A gateway that never reported is left out, as WriteFleetHomets leaves
  // it out of columnar fleets: its CSV would be a header-only file the CSV
  // reader rejects.
  if (workload != "csv_convert") {
    auto writer = homets::storage::HometsWriter::Create(dir + "/fleet.homets");
    if (!writer.ok()) return fail(writer.status());
    for (const int id : order) {
      const auto gateway = generator.Generate(id);
      if (gateway.AggregateTraffic().CountObserved() == 0) continue;
      const auto status = writer->Append(gateway);
      if (!status.ok()) return fail(status);
    }
    const auto status = writer->Finish();
    return status.ok() ? 0 : fail(status);
  }
  // One CSV per gateway, as `homets_cli generate` writes them, numbered in
  // the seed's order.
  int index = 0;
  for (const int id : order) {
    const auto gateway = generator.Generate(id);
    if (gateway.AggregateTraffic().CountObserved() == 0) continue;
    char name[64];
    std::snprintf(name, sizeof(name), "/gateway_%03d.csv", index++);
    const auto status = homets::io::WriteGatewayFile(
        dir + name, gateway, homets::io::InputFormat::kCsv);
    if (!status.ok()) return fail(status);
  }
  return 0;
}

uint64_t CounterValue(std::string_view name) {
  return homets::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

size_t DeviceRows(const homets::simgen::DeviceTrace& device) {
  const auto& in = device.incoming;
  const auto& out = device.outgoing;
  if (in.start_minute() != out.start_minute() || in.size() != out.size() ||
      in.step_minutes() != out.step_minutes()) {
    return std::max(in.CountObserved(), out.CountObserved());
  }
  size_t rows = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    if (!std::isnan(in[i]) || !std::isnan(out[i])) ++rows;
  }
  return rows;
}

size_t GatewayMinutes(const homets::simgen::GatewayTrace& gateway) {
  int64_t begin = 0, end = 0;
  bool any = false;
  for (const auto& device : gateway.devices) {
    for (const auto* series : {&device.incoming, &device.outgoing}) {
      if (series->empty()) continue;
      begin = any ? std::min(begin, series->start_minute())
                  : series->start_minute();
      end = any ? std::max(end, series->EndMinute()) : series->EndMinute();
      any = true;
    }
  }
  return any ? static_cast<size_t>(end - begin) : 0;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st = {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

void SetSelfTimes(const std::vector<Span>& spans, double gateways,
                  MetricSet* metrics) {
  const auto totals = SummarizeSpans(spans);
  for (const auto& [name, unit] : PerLayerCatalog()) {
    if (name.rfind("self_ms.", 0) != 0) continue;
    const auto it = totals.find(name.substr(8));
    const double self_ns = it == totals.end() ? 0.0 : it->second.self_ns;
    metrics->Set(name, self_ns / 1e6 / gateways);
  }
}

}  // namespace perfbench
