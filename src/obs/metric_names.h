#ifndef HOMETS_OBS_METRIC_NAMES_H_
#define HOMETS_OBS_METRIC_NAMES_H_

#include <string_view>

// Canonical registry of every metric name the library exports.
//
// Naming scheme (enforced by the homets_lint metric rules, which the
// `homets_lint_tree` ctest runs): `homets.<layer>.<name>` where `<layer>` is
// the source module (engine, correlation, stationarity, dominance, motif,
// background, streaming, io, ingest, storage, log, fleet, failpoint) and
// both segments are lower_snake_case.
// Instrumentation sites must use these constants — raw "homets.*" literals
// at registration sites fail the lint — so the full metric surface is
// readable in one file.
namespace homets::obs {

// core/similarity_engine — parallel pairwise Definition 1.
inline constexpr std::string_view kEnginePairsComputed =
    "homets.engine.pairs_computed";

// correlation/prepared_series — windows that cannot take the profiled fast
// path (NaNs or < 3 values) and fall back to pairwise-complete gathering.
inline constexpr std::string_view kCorrelationDegenerateFallbacks =
    "homets.correlation.degenerate_fallbacks";

// core/stationarity — Definition 2 funnel.
inline constexpr std::string_view kStationarityWindowsTested =
    "homets.stationarity.windows_tested";
inline constexpr std::string_view kStationarityWindowPairs =
    "homets.stationarity.window_pairs";
inline constexpr std::string_view kStationarityKsRejections =
    "homets.stationarity.ks_rejections";
inline constexpr std::string_view kStationarityPairsBelowPhi =
    "homets.stationarity.pairs_below_phi";

// core/dominance — Definition 4 funnel.
inline constexpr std::string_view kDominanceDevicesTested =
    "homets.dominance.devices_tested";
inline constexpr std::string_view kDominanceDevicesAbovePhi =
    "homets.dominance.devices_above_phi";

// core/motif — Definition 5 funnel.
inline constexpr std::string_view kMotifWindowsMined =
    "homets.motif.windows_mined";
inline constexpr std::string_view kMotifMotifsMerged =
    "homets.motif.motifs_merged";
inline constexpr std::string_view kMotifMotifsReported =
    "homets.motif.motifs_reported";
inline constexpr std::string_view kMotifCacheHits = "homets.motif.cache_hits";
inline constexpr std::string_view kMotifCacheMisses =
    "homets.motif.cache_misses";

// core/background — τ estimation and thresholding.
inline constexpr std::string_view kBackgroundThresholdsEstimated =
    "homets.background.thresholds_estimated";
inline constexpr std::string_view kBackgroundTauCapped =
    "homets.background.tau_capped";
inline constexpr std::string_view kBackgroundValuesZeroed =
    "homets.background.values_zeroed";

// core/streaming — window assembly and online motif maintenance.
inline constexpr std::string_view kStreamingObservationsIngested =
    "homets.streaming.observations_ingested";
inline constexpr std::string_view kStreamingWindowsAssembled =
    "homets.streaming.windows_assembled";
inline constexpr std::string_view kStreamingWindowsEvicted =
    "homets.streaming.windows_evicted";
inline constexpr std::string_view kStreamingMotifsMerged =
    "homets.streaming.motifs_merged";

// io/csv — trace ingestion. blank_lines counts empty and whitespace-only
// lines passed over; rejected rows are the homets.ingest.* counters below.
inline constexpr std::string_view kIoRowsParsed = "homets.io.rows_parsed";
inline constexpr std::string_view kIoBlankLines = "homets.io.blank_lines";
inline constexpr std::string_view kIoFilesRead = "homets.io.files_read";

// io/csv resilient ingestion — ReadOptions error-policy funnel (rows
// quarantined by class, transient-error retries, and reads abandoned at the
// per-file error cap).
inline constexpr std::string_view kIngestRowsMalformed =
    "homets.ingest.rows_malformed";
inline constexpr std::string_view kIngestRowsDuplicate =
    "homets.ingest.rows_duplicate";
inline constexpr std::string_view kIngestRetries = "homets.ingest.retries";
inline constexpr std::string_view kIngestFilesQuarantined =
    "homets.ingest.files_quarantined";

// storage/homets_format — columnar chunk IO. raw_bytes is the uncompressed
// size of what chunks_written encoded (8 bytes/bin), so
// raw_bytes / bytes_written is the compression ratio; chunks_skipped counts
// the chunks of a ReadSeries request's series that fall outside its minute
// range (time-range pruning; their mmap pages are never faulted in).
// ReadGateway decodes whole series and skips nothing.
inline constexpr std::string_view kStorageChunksWritten =
    "homets.storage.chunks_written";
inline constexpr std::string_view kStorageChunksRead =
    "homets.storage.chunks_read";
inline constexpr std::string_view kStorageChunksSkipped =
    "homets.storage.chunks_skipped";
inline constexpr std::string_view kStorageBytesWritten =
    "homets.storage.bytes_written";
inline constexpr std::string_view kStorageBytesRead =
    "homets.storage.bytes_read";
inline constexpr std::string_view kStorageRawBytes =
    "homets.storage.raw_bytes";
inline constexpr std::string_view kStorageFilesWritten =
    "homets.storage.files_written";
inline constexpr std::string_view kStorageFilesOpened =
    "homets.storage.files_opened";
inline constexpr std::string_view kStorageCrcFailures =
    "homets.storage.crc_failures";

// obs/log — structured logger funnel: records admitted and written to the
// sinks, and records the per-(component, severity) token bucket suppressed.
inline constexpr std::string_view kLogRecords = "homets.log.records";
inline constexpr std::string_view kLogSuppressed = "homets.log.suppressed";

// fleet — shard orchestration funnel: plan → run/resume → checkpoint →
// quarantine. shards_resumed counts shards satisfied from valid checkpoints;
// checkpoints_discarded counts files that existed but failed validation
// (torn CRC, stale fingerprint, old schema); gateways_analyzed counts the
// gateways analyzed in accepted shard results of this run (a retried
// attempt's and a resumed checkpoint's are not counted).
inline constexpr std::string_view kFleetShardsPlanned =
    "homets.fleet.shards_planned";
inline constexpr std::string_view kFleetShardsRun =
    "homets.fleet.shards_run";
inline constexpr std::string_view kFleetShardsResumed =
    "homets.fleet.shards_resumed";
inline constexpr std::string_view kFleetShardsQuarantined =
    "homets.fleet.shards_quarantined";
inline constexpr std::string_view kFleetShardRetries =
    "homets.fleet.shard_retries";
inline constexpr std::string_view kFleetCheckpointsWritten =
    "homets.fleet.checkpoints_written";
inline constexpr std::string_view kFleetCheckpointsDiscarded =
    "homets.fleet.checkpoints_discarded";
inline constexpr std::string_view kFleetGatewaysAnalyzed =
    "homets.fleet.gateways_analyzed";

// common/failpoint — fault-injection registry (counts only while armed, so
// both stay zero in production runs).
inline constexpr std::string_view kFailpointEvaluations =
    "homets.failpoint.evaluations";
inline constexpr std::string_view kFailpointTriggers =
    "homets.failpoint.triggers";

}  // namespace homets::obs

#endif  // HOMETS_OBS_METRIC_NAMES_H_
