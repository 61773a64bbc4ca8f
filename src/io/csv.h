#ifndef HOMETS_IO_CSV_H_
#define HOMETS_IO_CSV_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "simgen/types.h"

namespace homets::io {

/// \brief The most minutes a gateway CSV may span, first row to last: four
/// years. The reader puts every device on the whole span (16 bytes a minute,
/// in and out), so a file whose minutes spread further is refused with
/// InvalidArgument before anything that size is allocated.
inline constexpr int64_t kMaxMinuteSpan = int64_t{4} * 366 * 24 * 60;

/// \brief The longest line a gateway CSV may hold, without its '\n': 1 MiB.
/// A longer line is a malformed row, and the reader skips past it without
/// holding more than this much of it in memory.
inline constexpr size_t kMaxLineBytes = size_t{1} << 20;

/// \brief What the reader does with a row it cannot use as-is (malformed,
/// unknown device type, repeated (device, minute) observation).
enum class ErrorPolicy : uint8_t {
  /// Any bad row fails the whole read — the historical behavior, and the
  /// right one for data that is supposed to be machine-generated.
  kStrict = 0,
  /// Bad rows are quarantined (dropped, counted, sampled into the report)
  /// and the read succeeds if what remains is usable.
  kSkipAndReport,
};

/// \brief Knobs for resilient ingestion. The defaults reproduce the strict
/// historical behavior exactly.
struct ReadOptions {
  ErrorPolicy policy = ErrorPolicy::kStrict;
  /// Per-file cap on quarantined rows (malformed + duplicate); exceeding it
  /// fails the read even under kSkipAndReport, so a thoroughly corrupt file
  /// cannot silently dwindle to three usable rows.
  size_t max_errors = 256;
  /// Transient-IO retry budget: a read failing with kIoError is retried up
  /// to this many times (parse errors are never retried).
  int max_retries = 0;
  /// Deterministic exponential backoff between retries: attempt k sleeps
  /// `backoff_ms * 2^k` milliseconds. 0 retries immediately.
  double backoff_ms = 0.0;
};

/// \brief One quarantined row, sampled into the IngestReport.
struct QuarantinedRow {
  size_t line = 0;     ///< 1-based line number in the file
  std::string text;    ///< the raw row
  std::string reason;  ///< e.g. "wrong field count", "duplicate minute"
};

/// \brief What resilient ingestion did to one file.
struct IngestReport {
  std::string path;
  size_t rows_parsed = 0;       ///< rows accepted into the result
  size_t rows_malformed = 0;    ///< wrong arity / non-numeric / bad header
  size_t rows_duplicate = 0;    ///< (device, minute) seen before
  size_t retries = 0;           ///< transient-IO retries that were needed
  bool truncated = false;       ///< the file ended mid-stream (failpoint)
  /// First few quarantined rows verbatim (capped; the counters above are
  /// exact even when this sample is not exhaustive).
  std::vector<QuarantinedRow> quarantine;

  /// Total quarantined rows, the quantity capped by ReadOptions::max_errors.
  size_t SkippedTotal() const {
    return rows_malformed + rows_duplicate;
  }
  /// One-line human summary for logs ("3 malformed, 1 duplicate, ...").
  std::string Summary() const;
};

/// \brief Writes one gateway's per-device traces in long format:
/// `device,true_type,reported_type,minute,incoming,outgoing` — the shape a
/// real RGW measurement campaign would export.
Status WriteGatewayCsv(const std::string& path,
                       const simgen::GatewayTrace& gateway);

/// \brief Reads a gateway trace written by WriteGatewayCsv under `options`.
///
/// The long format names minutes explicitly, so a minute with no row reads
/// as Missing and rows may come in any order; the policies differ on
/// malformed rows, unknown device types, and duplicate (device, minute)
/// observations (the first row wins under kSkipAndReport, and a quarantined
/// row changes nothing in the result). A line longer than kMaxLineBytes is
/// a malformed row. Devices come back in name order, each
/// on the span from the file's first to its last minute (at most
/// kMaxMinuteSpan minutes, else InvalidArgument); a device's types
/// are those of its last accepted row. `report` (may be nullptr) receives
/// what happened; the `homets.ingest.*` metrics aggregate the same counts
/// across files.
Result<simgen::GatewayTrace> ReadGatewayCsv(const std::string& path,
                                            const ReadOptions& options,
                                            IngestReport* report = nullptr);

/// \brief Strict read — `ReadOptions{}` semantics, kept for existing callers.
Result<simgen::GatewayTrace> ReadGatewayCsv(const std::string& path);

}  // namespace homets::io

#endif  // HOMETS_IO_CSV_H_
