#ifndef HOMETS_FLEET_SHARD_H_
#define HOMETS_FLEET_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "core/profiling.h"
#include "io/dataset.h"
#include "simgen/types.h"

// Sharded fleet execution (DESIGN.md §15).
//
// A fleet run partitions the gateway population into contiguous shards,
// executes the per-gateway pipeline (profile, τ groups, daily motifs, Zipf
// binning) shard by shard, and merges per-shard results into fleet-level
// figures. Everything in this header is deterministic in the gateway order:
// a ShardResult depends only on the input data and the shard's gateway
// range, never on thread scheduling or shard completion order — that is
// what makes checkpoints reusable across interrupted runs.
namespace homets::fleet {

/// \brief One shard: a contiguous half-open range of global gateway indices.
struct ShardPlan {
  int shard_index = 0;
  int begin_gateway = 0;  ///< inclusive
  int end_gateway = 0;    ///< exclusive
};

/// \brief Deterministically partitions `n_gateways` into `n_shards`
/// contiguous, near-equal ranges (the first `n_gateways % n_shards` shards
/// get one extra gateway). Shards beyond the gateway count come back empty
/// rather than failing, so `--shards` larger than the fleet still works.
class ShardPlanner {
 public:
  static Result<std::vector<ShardPlan>> Plan(int n_gateways, int n_shards);
};

/// \brief Where a global gateway index lives on disk.
struct GatewaySourceRef {
  size_t input_index = 0;    ///< into FleetInputs::paths
  size_t gateway_index = 0;  ///< within that file
};

/// \brief The resolved input set of a fleet run: every path with its size
/// and mtime (for the resume fingerprint) and the global gateway order
/// (inputs in command-line order, gateways in file order within each input).
struct FleetInputs {
  std::vector<std::string> paths;
  std::vector<uint64_t> bytes;
  std::vector<uint64_t> mtime_ns;  ///< parallel to paths; ns since epoch
  std::vector<GatewaySourceRef> gateways;
};

/// \brief Opens every input once to count gateways and sizes. The global
/// gateway order this fixes is part of the fleet fingerprint: reordering
/// inputs invalidates checkpoints.
Result<FleetInputs> EnumerateFleetInputs(
    const std::vector<std::string>& paths,
    const io::DatasetOptions& options);

/// \brief Per-gateway extract of the pipeline outputs that fleet reports
/// aggregate. `evening_share` keeps its raw IEEE-754 bits through checkpoint
/// round trips, so merged reports are byte-identical however they were
/// computed.
struct GatewaySummary {
  int32_t gateway_id = 0;  ///< global gateway index in the fleet order
  /// ProfileGateway succeeded: the active aggregate has an observation.
  bool eligible = false;
  /// Devices listed in the trace, observed or not (GatewayProfile's field
  /// of the same name counts only devices with an observation).
  uint32_t devices_observed = 0;
  uint32_t dominant_count = 0;
  uint32_t min_residents = 0;
  bool weekly_stationary = false;
  int32_t quietest_slot = 0;
  double evening_share = 0.0;
  uint32_t tau_small = 0;
  uint32_t tau_medium = 0;
  uint32_t tau_large = 0;
  uint32_t daily_windows = 0;
  uint32_t daily_motifs = 0;
};

/// \brief The summary of one gateway: ProfileGateway's figures (when it
/// succeeds) plus daily motifs mined from `pipeline.active`, which is
/// reported even for an ineligible gateway. `pipeline` must be
/// core::BuildGatewayPipeline(trace).
GatewaySummary SummarizeGateway(int32_t gateway_id,
                                const simgen::GatewayTrace& trace,
                                const core::GatewayPipeline& pipeline,
                                const core::ProfilingOptions& profiling);

/// Number of absolute logarithmic traffic-value bins kept per shard for the
/// fleet-wide Zipf rank-frequency fit. Bins are fixed (half-log2 steps over
/// [2^-32, 2^32)), so per-shard counts add associatively and the merged
/// histogram is independent of how the fleet was sharded.
inline constexpr size_t kZipfBins = 128;

/// Maps a positive traffic value to its absolute log bin.
size_t ZipfBinIndex(double value);

/// \brief Everything one shard contributes to the fleet report.
struct ShardResult {
  ShardPlan plan;
  std::vector<GatewaySummary> gateways;  ///< in global gateway order
  std::vector<uint64_t> zipf_bins;       ///< size kZipfBins
  uint64_t values_binned = 0;
};

/// \brief Executes one shard of the per-gateway pipeline.
///
/// Each RunShard() opens its own DatasetReader per input file it touches, so a
/// poisoned file fails only the shards that read it. The `fleet.shard.run`
/// failpoint is evaluated per (shard index, attempt) with the
/// schedule-independent EvaluateAt semantics, so chaos schedules hit the
/// same shards under any thread count.
class ShardRunner {
 public:
  ShardRunner(const FleetInputs* inputs, io::DatasetOptions options,
              core::ProfilingOptions profiling = {});

  /// Runs the shard; `cancel` (may be nullptr) is polled per gateway;
  /// `attempt` is the 1-based retry attempt, forwarded to the failpoint.
  Result<ShardResult> RunShard(const ShardPlan& plan,
                          const CancellationToken* cancel,
                          uint64_t attempt = 1) const;

 private:
  const FleetInputs* inputs_;
  io::DatasetOptions options_;
  core::ProfilingOptions profiling_;
};

}  // namespace homets::fleet

#endif  // HOMETS_FLEET_SHARD_H_
