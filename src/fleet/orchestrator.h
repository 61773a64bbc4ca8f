#ifndef HOMETS_FLEET_ORCHESTRATOR_H_
#define HOMETS_FLEET_ORCHESTRATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/profiling.h"
#include "fleet/shard.h"
#include "io/dataset.h"

// Fleet orchestration (DESIGN.md §15): plan shards, run them on the thread
// pool with per-shard retry and deadline, checkpoint completed shards,
// quarantine poison shards, and merge everything into one deterministic
// fleet report.
namespace homets::fleet {

/// \brief Knobs of a fleet run.
struct FleetOptions {
  int n_shards = 1;
  int threads = 0;  ///< 0 = hardware concurrency
  /// Directory for shard checkpoints and their LOCK; empty disables
  /// checkpointing (and resume).
  std::string checkpoint_dir;
  /// Load valid checkpoints from `checkpoint_dir` and re-run only the rest.
  bool resume = false;
  /// Failed shards are quarantined and the report marked degraded; when
  /// false the first shard failure aborts the whole run (fail-fast).
  bool quarantine = true;
  /// Per-shard attempts (1 = no retry); a failed attempt is retried at once.
  int max_attempts = 3;
  double shard_deadline_ms = 0.0;  ///< per-attempt deadline; 0 = none
  io::DatasetOptions dataset;
  core::ProfilingOptions profiling;
};

/// \brief A shard that exhausted its attempts and was set aside.
struct QuarantinedShard {
  int shard_index = 0;
  Status status;     ///< the last attempt's failure
  int attempts = 0;  ///< attempts consumed (== max_attempts)
};

/// \brief Merged fleet-level results, in deterministic gateway order.
struct FleetReport {
  int n_gateways = 0;  ///< planned fleet size
  int n_shards = 0;
  std::vector<GatewaySummary> gateways;  ///< from completed shards only
  std::vector<uint64_t> zipf_bins;       ///< size kZipfBins, merged
  uint64_t values_binned = 0;
  bool degraded = false;  ///< at least one shard quarantined
  std::vector<QuarantinedShard> quarantined;  ///< sorted by shard_index
  uint64_t shards_resumed = 0;    ///< loaded from checkpoints
  uint64_t checkpoints_discarded = 0;  ///< present but torn/stale
};

/// \brief Runs the sharded fleet pipeline end to end.
///
/// The merge is by shard index, never completion order, so the report bytes
/// are identical across thread counts — and a run killed at shard K then
/// resumed reproduces the uninterrupted report exactly (the resume counters
/// above are surfaced in telemetry only, not in FormatFleetReport).
class FleetOrchestrator {
 public:
  FleetOrchestrator(std::vector<std::string> inputs, FleetOptions options);

  Result<FleetReport> Analyze();

 private:
  std::vector<std::string> inputs_;
  FleetOptions options_;
};

/// \brief Renders the fleet-level figures (Zipf fit, dominance histogram,
/// stationarity/τ/motif aggregates, quarantine state) as a stable
/// human-readable report. Pure function of the report's data.
std::string FormatFleetReport(const FleetReport& report);

}  // namespace homets::fleet

#endif  // HOMETS_FLEET_ORCHESTRATOR_H_
