#include "io/csv.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "obs/log.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace homets::io {

namespace {

/// Quarantine samples kept verbatim per file; counters stay exact beyond it.
constexpr size_t kQuarantineSampleCap = 16;

/// Bytes read per block. A line longer than this grows the buffer, up to
/// kMaxLineBytes; the file as a whole is never held in memory.
constexpr size_t kReadBlockBytes = size_t{256} * 1024;

/// Bytes of an overlong line kept for its quarantine sample.
constexpr size_t kOverlongSampleBytes = 64;

constexpr std::string_view kGatewayHeader =
    "device,true_type,reported_type,minute,incoming,outgoing";

/// Fields per gateway row: the header's six columns.
constexpr size_t kGatewayFields = 6;

struct IoMetrics {
  obs::Counter* rows_parsed;
  obs::Counter* rows_skipped;
  obs::Counter* files_read;
  obs::Counter* rows_malformed;
  obs::Counter* rows_duplicate;
  obs::Counter* retries;
  obs::Counter* files_quarantined;
};

const IoMetrics& Metrics() {
  static const IoMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return IoMetrics{registry.GetCounter(obs::kIoRowsParsed),
                     registry.GetCounter(obs::kIoRowsSkipped),
                     registry.GetCounter(obs::kIoFilesRead),
                     registry.GetCounter(obs::kIngestRowsMalformed),
                     registry.GetCounter(obs::kIngestRowsDuplicate),
                     registry.GetCounter(obs::kIngestRetries),
                     registry.GetCounter(obs::kIngestFilesQuarantined)};
  }();
  return metrics;
}

void PublishIngest(const IngestReport& report, bool file_quarantined) {
  const IoMetrics& m = Metrics();
  if (report.rows_malformed > 0) m.rows_malformed->Increment(report.rows_malformed);
  if (report.rows_duplicate > 0) m.rows_duplicate->Increment(report.rows_duplicate);
  if (report.retries > 0) m.retries->Increment(report.retries);
  if (file_quarantined) m.files_quarantined->Increment();
}

Result<simgen::DeviceType> ParseDeviceType(std::string_view name) {
  if (name == "portable") return simgen::DeviceType::kPortable;
  if (name == "fixed") return simgen::DeviceType::kFixed;
  if (name == "network_equipment") return simgen::DeviceType::kNetworkEquipment;
  if (name == "game_console") return simgen::DeviceType::kGameConsole;
  if (name == "unlabeled") return simgen::DeviceType::kUnlabeled;
  return Status::InvalidArgument("unknown device type: " + std::string(name));
}

/// Whole-field integer parse; never throws (std::stoll would).
Result<int64_t> ParseMinute(std::string_view field) {
  const std::string_view text = StrTrim(field);
  int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || text.empty()) {
    return Status::InvalidArgument("non-numeric minute: " +
                                   std::string(field));
  }
  return value;
}

/// Whole-field double parse; an empty field is a missing observation.
Result<double> ParseValue(std::string_view field) {
  const std::string_view text = StrTrim(field);
  if (text.empty()) return ts::TimeSeries::Missing();
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("non-numeric value: " + std::string(field));
  }
  return value;
}

/// Per-file quarantine bookkeeping.
class RowQuarantine {
 public:
  RowQuarantine(const ReadOptions& options, const std::string& path,
                IngestReport* report)
      : options_(options), path_(path), report_(report) {}

  /// Records one unusable row against `counter` (a field of the report);
  /// fails the read once the per-file cap is exhausted.
  Status Add(size_t* counter, size_t line_no, std::string_view text,
             const char* reason) {
    ++*counter;
    if (report_->quarantine.size() < kQuarantineSampleCap) {
      report_->quarantine.push_back(
          QuarantinedRow{line_no, std::string(text), reason});
    }
    if (report_->SkippedTotal() > options_.max_errors) {
      return Status::InvalidArgument(
          StrFormat("too many bad rows in %s (cap %zu)", path_.c_str(),
                    options_.max_errors));
    }
    return Status::OK();
  }

 private:
  const ReadOptions& options_;
  const std::string& path_;
  IngestReport* report_;
};

/// Applies the `io.csv.row` failpoint to one raw line. kCorrupt mangles the
/// line's last cell so the row is malformed (a parse error, never retried);
/// kTruncate
/// simulates the file ending mid-stream; kError is a transient (retryable)
/// read failure.
enum class RowFate { kKeep, kTruncateStream };

Result<RowFate> ApplyRowFailpoint(std::string* line) {
  switch (EvaluateFailpoint(kFailpointCsvRow)) {
    case FailpointAction::kError:
      return Status::IoError("injected by failpoint 'io.csv.row'");
    case FailpointAction::kCorrupt:
      line->append("\x01corrupt\x01");
      return RowFate::kKeep;
    case FailpointAction::kTruncate:
      return RowFate::kTruncateStream;
    default:
      return RowFate::kKeep;
  }
}

/// Splits a file into lines on '\n' through one read buffer, as std::getline
/// does: a trailing '\r' stays in the line, and a final '\n' ends the last
/// line rather than starting an empty one. The buffer holds one block, or
/// the longest line when that is longer, and never more than
/// kMaxLineBytes + 1 bytes, whatever the file size.
class LineReader {
 public:
  explicit LineReader(std::FILE* file)
      : file_(file), buffer_(kReadBlockBytes) {}

  /// The next line, valid until the following call; false at end of file
  /// or on a read error (then failed() is true). A line longer than
  /// kMaxLineBytes comes back as its first kOverlongSampleBytes bytes with
  /// overlong() true; the rest of it is read past, not kept.
  bool ReadLine(std::string_view* line) {
    overlong_ = false;
    for (;;) {
      const char* begin = buffer_.data() + begin_;
      const size_t available = end_ - begin_;
      if (const void* newline = std::memchr(begin, '\n', available)) {
        const size_t length =
            static_cast<size_t>(static_cast<const char*>(newline) - begin);
        *line = std::string_view(begin, length);
        begin_ += length + 1;
        return true;
      }
      if (available > kMaxLineBytes) {
        overlong_ = true;
        sample_.assign(begin, kOverlongSampleBytes);
        *line = sample_;
        SkipLine();
        return true;
      }
      if (eof_) {
        if (available == 0) return false;
        *line = std::string_view(begin, available);
        begin_ = end_;
        return true;
      }
      Refill();
    }
  }

  bool failed() const { return failed_; }
  /// True when the line ReadLine returned last ran past kMaxLineBytes.
  bool overlong() const { return overlong_; }

 private:
  /// Moves the partial last line to the front and reads the next block
  /// behind it, doubling the buffer (up to kMaxLineBytes + 1, one byte more
  /// than the longest line) only when that line fills it.
  void Refill() {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (end_ == buffer_.size()) {
      buffer_.resize(std::min(buffer_.size() * 2, kMaxLineBytes + 1));
    }
    const size_t got =
        std::fread(buffer_.data() + end_, 1, buffer_.size() - end_, file_);
    end_ += got;
    if (got == 0) {
      eof_ = true;
      failed_ = std::ferror(file_) != 0;
    }
  }

  /// Drops the buffered part of a line that has no '\n' yet, then reads
  /// blocks until one holds the '\n' (the next line starts after it) or the
  /// file ends.
  void SkipLine() {
    const void* newline = nullptr;
    while (newline == nullptr && !eof_) {
      begin_ = end_;
      Refill();
      newline = std::memchr(buffer_.data(), '\n', end_);
    }
    if (newline != nullptr) {
      begin_ = static_cast<size_t>(static_cast<const char*>(newline) -
                                   buffer_.data()) + 1;
    }
  }

  std::FILE* file_;
  std::vector<char> buffer_;
  size_t begin_ = 0;  ///< first unread byte
  size_t end_ = 0;    ///< one past the last byte read
  bool eof_ = false;
  bool failed_ = false;
  bool overlong_ = false;
  std::string sample_;  ///< the start of the last overlong line
};

/// Cuts `line` at its commas; false unless it has exactly kGatewayFields
/// fields (the same count StrSplit would give).
bool SplitGatewayRow(std::string_view line,
                     std::array<std::string_view, kGatewayFields>* fields) {
  size_t start = 0;
  for (size_t i = 0; i + 1 < kGatewayFields; ++i) {
    const size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) return false;
    (*fields)[i] = line.substr(start, comma - start);
    start = comma + 1;
  }
  const std::string_view last = line.substr(start);
  if (last.find(',') != std::string_view::npos) return false;
  fields->back() = last;
  return true;
}

struct GatewayRow {
  simgen::DeviceType true_type = simgen::DeviceType::kUnlabeled;
  simgen::DeviceType reported_type = simgen::DeviceType::kUnlabeled;
  int64_t minute = 0;
  double in = 0.0;
  double out = 0.0;
};

Result<GatewayRow> ParseGatewayRow(
    const std::array<std::string_view, kGatewayFields>& fields) {
  GatewayRow row;
  HOMETS_ASSIGN_OR_RETURN(row.true_type, ParseDeviceType(fields[1]));
  HOMETS_ASSIGN_OR_RETURN(row.reported_type, ParseDeviceType(fields[2]));
  HOMETS_ASSIGN_OR_RETURN(row.minute, ParseMinute(fields[3]));
  HOMETS_ASSIGN_OR_RETURN(row.in, ParseValue(fields[4]));
  HOMETS_ASSIGN_OR_RETURN(row.out, ParseValue(fields[5]));
  return row;
}

/// One device's accepted observations, in file order.
struct DeviceRows {
  struct Observation {
    int64_t minute;
    double in;
    double out;
  };
  simgen::DeviceType true_type = simgen::DeviceType::kUnlabeled;
  simgen::DeviceType reported_type = simgen::DeviceType::kUnlabeled;
  std::vector<Observation> rows;
  /// Every minute seen, built at the first minute that does not increase;
  /// while minutes strictly increase no row can repeat one.
  std::optional<std::unordered_set<int64_t>> seen;

  /// True, and `minute` recorded as seen, unless the device already has it.
  bool Claim(int64_t minute) {
    if (!seen.has_value()) {
      if (rows.empty() || minute > rows.back().minute) return true;
      seen.emplace();
      seen->reserve(rows.size() * 2);
      for (const Observation& row : rows) seen->insert(row.minute);
    }
    return seen->insert(minute).second;
  }
};

/// Row counts of one read attempt. They reach the report and the
/// `homets.io.*` counters once, on whichever path the attempt returns by.
class AttemptCounts {
 public:
  explicit AttemptCounts(IngestReport* report) : report_(report) {}
  AttemptCounts(const AttemptCounts&) = delete;
  AttemptCounts& operator=(const AttemptCounts&) = delete;
  ~AttemptCounts() {
    report_->rows_parsed = parsed;
    if (parsed > 0) Metrics().rows_parsed->Increment(parsed);
    if (skipped > 0) Metrics().rows_skipped->Increment(skipped);
  }

  size_t parsed = 0;   ///< rows accepted into the result
  size_t skipped = 0;  ///< blank lines

 private:
  IngestReport* report_;
};

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};

/// One read attempt of a gateway long-format file under `options`.
Result<simgen::GatewayTrace> ReadGatewayCsvOnce(const std::string& path,
                                                const ReadOptions& options,
                                                IngestReport* report) {
  obs::ScopedSpan span("io.read_gateway_csv");
  HOMETS_FAILPOINT(kFailpointCsvOpen);
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  if (!file) return Status::IoError("cannot open for read: " + path);
  Metrics().files_read->Increment();
  const bool strict = options.policy == ErrorPolicy::kStrict;
  RowQuarantine quarantine(options, path, report);
  AttemptCounts counts(report);
  LineReader lines(file.get());
  std::string_view line;
  size_t line_no = 1;
  if (!lines.ReadLine(&line)) {
    return Status::IoError((lines.failed() ? "read failed: " : "empty file: ") +
                           path);
  }
  if (StrTrim(line) != kGatewayHeader) {
    if (strict) {
      return Status::InvalidArgument("bad header in " + path + ": " +
                                     std::string(line));
    }
    HOMETS_RETURN_IF_ERROR(
        quarantine.Add(&report->rows_malformed, line_no, line, "bad header"));
  }

  std::map<std::string, DeviceRows, std::less<>> devices;
  // The writer groups rows by device, so most rows hit the last device.
  DeviceRows* last = nullptr;
  std::string_view last_name;
  int64_t min_minute = 0;
  int64_t max_minute = 0;
  std::string owned;  // the line, when a failpoint may rewrite it
  std::array<std::string_view, kGatewayFields> fields;
  while (lines.ReadLine(&line)) {
    ++line_no;
    if (lines.overlong()) {
      // Only the line's start was kept.
      if (strict) {
        return Status::InvalidArgument(
            StrFormat("line %zu of %s is longer than %zu bytes", line_no,
                      path.c_str(), kMaxLineBytes));
      }
      HOMETS_RETURN_IF_ERROR(quarantine.Add(&report->rows_malformed, line_no,
                                            line, "line too long"));
      continue;
    }
    if (Failpoints::Global().armed()) {
      owned.assign(line);
      HOMETS_ASSIGN_OR_RETURN(const RowFate fate, ApplyRowFailpoint(&owned));
      if (fate == RowFate::kTruncateStream) {
        report->truncated = true;
        break;
      }
      line = owned;
    }
    if (StrTrim(line).empty()) {
      ++counts.skipped;
      continue;
    }
    if (!SplitGatewayRow(line, &fields)) {
      if (strict) {
        return Status::InvalidArgument("malformed row in " + path + ": " +
                                       std::string(line));
      }
      HOMETS_RETURN_IF_ERROR(quarantine.Add(&report->rows_malformed, line_no,
                                            line, "wrong field count"));
      continue;
    }
    const auto parsed = ParseGatewayRow(fields);
    if (!parsed.ok()) {
      if (strict) return parsed.status();
      HOMETS_RETURN_IF_ERROR(quarantine.Add(&report->rows_malformed, line_no,
                                            line,
                                            "unparseable cell or type"));
      continue;
    }
    const GatewayRow& row = *parsed;
    const std::string_view name = fields[0];
    if (last == nullptr || name != last_name) {
      auto it = devices.find(name);
      if (it == devices.end()) {
        it = devices.emplace(std::string(name), DeviceRows{}).first;
      }
      last = &it->second;
      last_name = it->first;
    }
    if (!last->Claim(row.minute)) {
      // First observation wins; a repeated (device, minute) key means the
      // exporter misbehaved and strict mode refuses to guess.
      if (strict) {
        return Status::InvalidArgument(
            StrFormat("duplicate observation in %s: device %s minute %lld",
                      path.c_str(), std::string(name).c_str(),
                      static_cast<long long>(row.minute)));
      }
      HOMETS_RETURN_IF_ERROR(quarantine.Add(&report->rows_duplicate, line_no,
                                            line, "duplicate minute"));
      continue;
    }
    last->true_type = row.true_type;
    last->reported_type = row.reported_type;
    last->rows.push_back({row.minute, row.in, row.out});
    if (counts.parsed == 0) {
      min_minute = row.minute;
      max_minute = row.minute;
    }
    ++counts.parsed;
    min_minute = std::min(min_minute, row.minute);
    max_minute = std::max(max_minute, row.minute);
  }
  if (lines.failed()) return Status::IoError("read failed: " + path);
  if (report->truncated && strict) {
    return Status::IoError("truncated stream in " + path);
  }
  if (devices.empty()) return Status::IoError("no data rows in " + path);

  // Unsigned subtraction is exact for max_minute >= min_minute, where the
  // signed one can overflow. The series' end minute, max_minute + 1, must
  // exist too.
  const uint64_t last_offset =
      static_cast<uint64_t>(max_minute) - static_cast<uint64_t>(min_minute);
  if (last_offset >= static_cast<uint64_t>(kMaxMinuteSpan) ||
      max_minute == std::numeric_limits<int64_t>::max()) {
    return Status::InvalidArgument(StrFormat(
        "minutes %lld to %lld in %s exceed the %lld-minute span of a gateway "
        "file",
        static_cast<long long>(min_minute), static_cast<long long>(max_minute),
        path.c_str(), static_cast<long long>(kMaxMinuteSpan)));
  }
  simgen::GatewayTrace gw;
  const size_t n = static_cast<size_t>(last_offset) + 1;
  for (auto& [name, acc] : devices) {
    simgen::DeviceTrace dev;
    dev.name = name;
    dev.true_type = acc.true_type;
    dev.reported_type = acc.reported_type;
    std::vector<double> in_vals(n, ts::TimeSeries::Missing());
    std::vector<double> out_vals(n, ts::TimeSeries::Missing());
    for (const DeviceRows::Observation& observed : acc.rows) {
      const size_t idx = static_cast<size_t>(observed.minute - min_minute);
      in_vals[idx] = observed.in;
      out_vals[idx] = observed.out;
    }
    dev.incoming = ts::TimeSeries(min_minute, 1, std::move(in_vals));
    dev.outgoing = ts::TimeSeries(min_minute, 1, std::move(out_vals));
    gw.devices.push_back(std::move(dev));
  }
  return gw;
}

}  // namespace

std::string IngestReport::Summary() const {
  return StrFormat("%s: %zu rows, %zu malformed, %zu duplicate, %zu retries%s",
                   path.c_str(), rows_parsed, rows_malformed, rows_duplicate,
                   retries, truncated ? ", truncated" : "");
}

Status WriteGatewayCsv(const std::string& path,
                       const simgen::GatewayTrace& gateway) {
  HOMETS_FAILPOINT(kFailpointCsvWrite);
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << kGatewayHeader << '\n';
  for (const auto& dev : gateway.devices) {
    for (size_t i = 0; i < dev.incoming.size(); ++i) {
      const double in_v = dev.incoming[i];
      const double out_v = i < dev.outgoing.size()
                               ? dev.outgoing[i]
                               : ts::TimeSeries::Missing();
      if (ts::TimeSeries::IsMissing(in_v) && ts::TimeSeries::IsMissing(out_v)) {
        continue;  // long format stores observed minutes only
      }
      out << dev.name << ',' << simgen::DeviceTypeName(dev.true_type) << ','
          << simgen::DeviceTypeName(dev.reported_type) << ','
          << dev.incoming.MinuteAt(i) << ',';
      if (!ts::TimeSeries::IsMissing(in_v)) out << StrFormat("%.3f", in_v);
      out << ',';
      if (!ts::TimeSeries::IsMissing(out_v)) out << StrFormat("%.3f", out_v);
      out << '\n';
    }
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

/// Transient failures (kIoError) are retried with deterministic exponential
/// backoff, each attempt on a fresh report; parse/content failures are never
/// retried. Publishes the ingest metrics exactly once per call.
Result<simgen::GatewayTrace> ReadGatewayCsv(const std::string& path,
                                            const ReadOptions& options,
                                            IngestReport* report) {
  IngestReport local;
  Result<simgen::GatewayTrace> result = Status::Unknown("read never attempted");
  for (int attempt_no = 0;; ++attempt_no) {
    const size_t retries_so_far = local.retries;
    local = IngestReport{};
    local.path = path;
    local.retries = retries_so_far;
    result = ReadGatewayCsvOnce(path, options, &local);
    if (result.ok() || result.status().code() != StatusCode::kIoError ||
        attempt_no >= options.max_retries) {
      break;
    }
    ++local.retries;
    obs::LogWarn("io.csv", "transient read failure, retrying",
                 {obs::LogField::Str("path", path),
                  obs::LogField::Int("attempt", attempt_no + 1),
                  obs::LogField::Str("error", result.status().message())});
    if (options.backoff_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options.backoff_ms * static_cast<double>(int64_t{1} << attempt_no)));
    }
  }
  const bool quarantined_file =
      !result.ok() && options.policy != ErrorPolicy::kStrict;
  if (local.SkippedTotal() > 0 || quarantined_file) {
    obs::LogWarn("io.csv",
                 quarantined_file ? "file quarantined" : "rows quarantined",
                 {obs::LogField::Str("path", path),
                  obs::LogField::Uint("rows_malformed", local.rows_malformed),
                  obs::LogField::Uint("rows_duplicate", local.rows_duplicate)});
  }
  PublishIngest(local, quarantined_file);
  if (report != nullptr) *report = std::move(local);
  return result;
}

Result<simgen::GatewayTrace> ReadGatewayCsv(const std::string& path) {
  return ReadGatewayCsv(path, ReadOptions{}, nullptr);
}

}  // namespace homets::io
