#ifndef HOMETS_OBS_REPORT_H_
#define HOMETS_OBS_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/trace.h"

// Run manifests: a schema-versioned machine-readable record of what a run
// was (config, inputs, failpoint schedule, read policy), what it did
// (per-stage wall times + metric deltas, the library's per-stage sums,
// ingest counters, thread counts) and how it ended (success / failure /
// cancelled, failing stage, Status) — written as RUN_MANIFEST.json on
// success AND on failure, so a fleet orchestrator can audit every shard
// afterwards. Run-manifest stage entries and BENCH_pipeline.json entries are
// printed from the same StageRecord ({"stage", "seconds", "units",
// "metrics": {deltas}}), so the same tooling reads both.
//
// Layering: homets_obs links only the standard library, so the builder takes
// plain counters (the CLI copies them out of io::IngestReport) and maps
// StatusCode to its canonical name locally.
namespace homets::obs {

/// \brief Ingest counters copied from io::IngestReport (plain numbers keep
/// homets_obs below homets_io in the link graph).
struct ManifestIngestCounters {
  uint64_t rows_parsed = 0;
  uint64_t rows_malformed = 0;
  uint64_t rows_duplicate = 0;
  uint64_t retries = 0;
  uint64_t files_truncated = 0;  ///< files that ended mid-stream
};

/// \brief Accumulates one run's manifest; thread-safe, write-mostly.
///
/// The CLI owns one instance for the whole run and calls WriteJson from
/// every exit path (including FailWith), so a run killed by a failpoint
/// still leaves a partial manifest with the failing stage and Status.
class RunManifestBuilder {
 public:
  /// Bump on any incompatible change to the JSON shape; readers check it
  /// (versioning policy in DESIGN.md §12). v2 added per-stage "resources"
  /// (CPU/RSS/faults + parallel_efficiency) and the top-level "histograms"
  /// percentile digest; v3 drops "resources.alloc_bytes"; v4 drops
  /// "ingest.rows_out_of_order" and "ingest.gaps_repaired" ("stage_sums"
  /// came in additively); v5 drops "histograms" and
  /// "stage_sums[].self_cpu_sys_seconds" and renames
  /// "ingest.files_quarantined" to "ingest.files_truncated".
  static constexpr int kSchemaVersion = 5;

  RunManifestBuilder();
  RunManifestBuilder(const RunManifestBuilder&) = delete;
  RunManifestBuilder& operator=(const RunManifestBuilder&) = delete;

  void SetTool(std::string name) HOMETS_EXCLUDES(mu_);
  /// Full command line, argv joined with single spaces.
  void SetCommand(std::string command) HOMETS_EXCLUDES(mu_);
  /// One resolved config flag (insertion order preserved; re-setting a key
  /// overwrites in place).
  void SetConfig(std::string_view key, std::string value)
      HOMETS_EXCLUDES(mu_);
  void AddInput(std::string path, std::string format, uint64_t bytes)
      HOMETS_EXCLUDES(mu_);
  void SetFailpoints(std::string spec, uint64_t seed) HOMETS_EXCLUDES(mu_);
  void SetThreads(int hardware, int used) HOMETS_EXCLUDES(mu_);
  void SetReadPolicy(std::string policy, int retries) HOMETS_EXCLUDES(mu_);
  /// Accumulates (a run can ingest many files/datasets).
  void RecordIngest(const ManifestIngestCounters& counters)
      HOMETS_EXCLUDES(mu_);

  /// Appends a completed stage (StageTimer calls this when it closes).
  void AddStage(StageRecord record) HOMETS_EXCLUDES(mu_);
  std::vector<StageRecord> Stages() const HOMETS_EXCLUDES(mu_);

  /// Adds one call of a library stage to its name's "stage_sums" row
  /// (StageTimer does, while this manifest is the installed collector).
  void AddStageCall(const std::string& stage, const StageSum& call)
      HOMETS_EXCLUDES(mu_);
  std::map<std::string, StageSum> StageSums() const HOMETS_EXCLUDES(mu_);

  /// Records the failing stage and Status; flips the outcome to "failure"
  /// (or "cancelled" for kCancelled/kDeadlineExceeded). First failure wins.
  void MarkFailed(std::string_view stage, const Status& status)
      HOMETS_EXCLUDES(mu_);

  /// Records one quarantined fleet shard (its final Status and the attempts
  /// it burned) and marks the run's outputs degraded. Additive v2 fields:
  /// runs without quarantined shards emit neither key.
  void AddQuarantinedShard(int shard_index, const Status& status,
                           int attempts) HOMETS_EXCLUDES(mu_);

  void SetExitCode(int exit_code) HOMETS_EXCLUDES(mu_);

  /// The manifest as pretty-enough JSON (stable key order, one stage per
  /// line) reflecting everything recorded so far.
  std::string ToJson() const HOMETS_EXCLUDES(mu_);

  /// Writes ToJson() to `path` (truncating); IoError on failure.
  Status WriteJson(const std::string& path) const HOMETS_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::chrono::steady_clock::time_point run_start_;

  struct Input {
    std::string path;
    std::string format;
    uint64_t bytes = 0;
  };

  std::string tool_ HOMETS_GUARDED_BY(mu_);
  std::string command_ HOMETS_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, std::string>> config_
      HOMETS_GUARDED_BY(mu_);
  std::vector<Input> inputs_ HOMETS_GUARDED_BY(mu_);
  bool has_failpoints_ HOMETS_GUARDED_BY(mu_) = false;
  std::string failpoint_spec_ HOMETS_GUARDED_BY(mu_);
  uint64_t failpoint_seed_ HOMETS_GUARDED_BY(mu_) = 0;
  int threads_hardware_ HOMETS_GUARDED_BY(mu_) = 0;
  int threads_used_ HOMETS_GUARDED_BY(mu_) = 0;
  std::string read_policy_ HOMETS_GUARDED_BY(mu_);
  int read_retries_ HOMETS_GUARDED_BY(mu_) = 0;
  bool has_ingest_ HOMETS_GUARDED_BY(mu_) = false;
  ManifestIngestCounters ingest_ HOMETS_GUARDED_BY(mu_);
  struct QuarantineEntry {
    int shard_index = 0;
    Status status;
    int attempts = 0;
  };

  std::vector<StageRecord> stages_ HOMETS_GUARDED_BY(mu_);
  std::map<std::string, StageSum> stage_sums_ HOMETS_GUARDED_BY(mu_);
  std::vector<QuarantineEntry> quarantine_ HOMETS_GUARDED_BY(mu_);
  bool degraded_ HOMETS_GUARDED_BY(mu_) = false;
  bool failed_ HOMETS_GUARDED_BY(mu_) = false;
  std::string failed_stage_ HOMETS_GUARDED_BY(mu_);
  Status final_status_ HOMETS_GUARDED_BY(mu_);
  int exit_code_ HOMETS_GUARDED_BY(mu_) = 0;
};

}  // namespace homets::obs

#endif  // HOMETS_OBS_REPORT_H_
