#ifndef HOMETS_PERFBENCH_WORKLOADS_H_
#define HOMETS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "simgen/types.h"
#include "spans.h"

// The three workloads. Each Run* does its timed set-up, runs its operation
// in a closed loop for RunOptions::seconds, checks every output, and — with
// RunOptions::trace — follows with the traced per-layer passes.
namespace perfbench {

/// simgen master seed of every workload's gateway population (simgen's
/// default: the paper's dataset start date).
inline constexpr uint64_t kPopulationSeed = 20140317;

/// The order in which a run presents the population's gateways: a
/// permutation of [0, n) drawn from the run's --seed.
std::vector<int> GatewayOrder(int n, uint64_t seed);

/// Writes the workload's inputs for `seed` into `dir`: the fixed population
/// of simgen gateways, in GatewayOrder(seed) for csv_convert and in simgen
/// order otherwise. Not part of any timed region.
///
/// The seed never changes the population, and changes the order only where
/// the order leaves the work unchanged. Per-gateway cost varies several-fold
/// across simgen gateways (devices, outages, regular homes): populations
/// drawn per seed moved gateways_per_s by 10-30% between seeds. The order
/// sets the fleet's shard balance (15% of gateways_per_s between orders)
/// and the stream miner's motif count, whose square its cost per window
/// follows (window latencies up to 30% apart between orders).
int GenerateInputs(const std::string& workload, uint64_t seed, bool tiny,
                   const std::string& dir);
int GenerateInputs(const std::string& workload, uint64_t seed, bool tiny,
                   const std::string& dir);

RunResult RunFleetAnalyze(const RunOptions& options);
RunResult RunStreamMotifs(const RunOptions& options);
RunResult RunCsvConvert(const RunOptions& options);

/// Current value of a homets.* counter in the global metrics registry.
uint64_t CounterValue(std::string_view name);

/// Observed device-minutes of a device: the rows it has in the CSV format.
size_t DeviceRows(const homets::simgen::DeviceTrace& device);
/// Minutes on the gateway's (normalized, step-1) grid.
size_t GatewayMinutes(const homets::simgen::GatewayTrace& gateway);
uint64_t FileBytes(const std::string& path);

/// Per-call kernel times on inputs cut from `sample`: `long` is one
/// device's grid series against the gateway aggregate (the dominance
/// shape), `short` a pair of 8-bin daily windows (the streaming shape).
/// Sets the correlation.* metrics.
void ProbeCorrelation(
    const std::vector<homets::simgen::GatewayTrace>& sample,
    MetricSet* metrics);

/// Sets the self_ms.* metrics (self time per gateway of every span name).
void SetSelfTimes(const std::vector<Span>& spans, double gateways,
                  MetricSet* metrics);

}  // namespace perfbench

#endif  // HOMETS_PERFBENCH_WORKLOADS_H_
