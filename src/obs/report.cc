#include "obs/report.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/prof_hooks.h"

namespace homets::obs {

namespace {

// Local code → canonical name map: StatusCodeToString lives in
// homets_common, which obs must not link (same reasoning as the snprintf
// formatting throughout this file vs. common/strings.h).
std::string_view CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kComputeError:
      return "ComputeError";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kUnknown:
      return "Unknown";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
  }
  return "Unknown";
}

void AppendEscaped(std::string_view s, std::string* out) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      *out += c;
    }
  }
}

void AppendQuoted(std::string_view s, std::string* out) {
  *out += '"';
  AppendEscaped(s, out);
  *out += '"';
}

void AppendUint(uint64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void AppendInt(int64_t v, std::string* out) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

void AppendSeconds(double v, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  *out += buf;
}

void AppendDouble(double v, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

uint64_t DeltaSince(uint64_t before, uint64_t after) {
  return after > before ? after - before : 0;
}

}  // namespace

RunManifestBuilder::RunManifestBuilder()
    : run_start_(std::chrono::steady_clock::now()) {}

void RunManifestBuilder::SetTool(std::string name) {
  MutexLock lock(&mu_);
  tool_ = std::move(name);
}

void RunManifestBuilder::SetCommand(std::string command) {
  MutexLock lock(&mu_);
  command_ = std::move(command);
}

void RunManifestBuilder::SetConfig(std::string_view key, std::string value) {
  MutexLock lock(&mu_);
  for (auto& [existing, existing_value] : config_) {
    if (existing == key) {
      existing_value = std::move(value);
      return;
    }
  }
  config_.emplace_back(std::string(key), std::move(value));
}

void RunManifestBuilder::AddInput(std::string path, std::string format,
                                  uint64_t bytes) {
  MutexLock lock(&mu_);
  inputs_.push_back(Input{std::move(path), std::move(format), bytes});
}

void RunManifestBuilder::SetFailpoints(std::string spec, uint64_t seed) {
  MutexLock lock(&mu_);
  has_failpoints_ = true;
  failpoint_spec_ = std::move(spec);
  failpoint_seed_ = seed;
}

void RunManifestBuilder::SetThreads(int hardware, int used) {
  MutexLock lock(&mu_);
  threads_hardware_ = hardware;
  threads_used_ = used;
}

void RunManifestBuilder::SetReadPolicy(std::string policy, int retries) {
  MutexLock lock(&mu_);
  read_policy_ = std::move(policy);
  read_retries_ = retries;
}

void RunManifestBuilder::RecordIngest(
    const ManifestIngestCounters& counters) {
  MutexLock lock(&mu_);
  has_ingest_ = true;
  ingest_.rows_parsed += counters.rows_parsed;
  ingest_.rows_malformed += counters.rows_malformed;
  ingest_.rows_duplicate += counters.rows_duplicate;
  ingest_.rows_out_of_order += counters.rows_out_of_order;
  ingest_.gaps_repaired += counters.gaps_repaired;
  ingest_.retries += counters.retries;
  ingest_.files_quarantined += counters.files_quarantined;
}

void RunManifestBuilder::AddStage(StageRecord record) {
  MutexLock lock(&mu_);
  stages_.push_back(std::move(record));
}

void RunManifestBuilder::MarkFailed(std::string_view stage,
                                    const Status& status) {
  MutexLock lock(&mu_);
  if (failed_) return;  // first failure wins; later ones are fallout
  failed_ = true;
  failed_stage_ = std::string(stage);
  final_status_ = status;
}

void RunManifestBuilder::AddQuarantinedShard(int shard_index,
                                             const Status& status,
                                             int attempts) {
  MutexLock lock(&mu_);
  quarantine_.push_back(QuarantineEntry{shard_index, status, attempts});
  degraded_ = true;
}

void RunManifestBuilder::SetDegraded() {
  MutexLock lock(&mu_);
  degraded_ = true;
}

void RunManifestBuilder::SetExitCode(int exit_code) {
  MutexLock lock(&mu_);
  exit_code_ = exit_code;
}

std::string RunManifestBuilder::ToJson() const {
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start_)
          .count();
  // Snapshot the global registry before taking mu_ (the registry has its own
  // lock); only non-empty histograms enter the percentile digest.
  std::map<std::string, HistogramSnapshot> histograms;
  for (auto& [name, h] : MetricsRegistry::Global().Snapshot().histograms) {
    if (h.count > 0) histograms.emplace(name, std::move(h));
  }
  MutexLock lock(&mu_);
  std::string out;
  out.reserve(1024);
  out += "{\n  \"schema_version\": ";
  AppendInt(kSchemaVersion, &out);
  out += ",\n  \"tool\": ";
  AppendQuoted(tool_, &out);
  out += ",\n  \"command\": ";
  AppendQuoted(command_, &out);
  out += ",\n  \"config\": {";
  for (size_t i = 0; i < config_.size(); ++i) {
    if (i > 0) out += ',';
    out += "\n    ";
    AppendQuoted(config_[i].first, &out);
    out += ": ";
    AppendQuoted(config_[i].second, &out);
  }
  out += config_.empty() ? "}" : "\n  }";
  out += ",\n  \"inputs\": [";
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (i > 0) out += ',';
    out += "\n    {\"path\": ";
    AppendQuoted(inputs_[i].path, &out);
    out += ", \"format\": ";
    AppendQuoted(inputs_[i].format, &out);
    out += ", \"bytes\": ";
    AppendUint(inputs_[i].bytes, &out);
    out += '}';
  }
  out += inputs_.empty() ? "]" : "\n  ]";
  if (has_failpoints_) {
    out += ",\n  \"failpoints\": {\"spec\": ";
    AppendQuoted(failpoint_spec_, &out);
    out += ", \"seed\": ";
    AppendUint(failpoint_seed_, &out);
    out += '}';
  }
  out += ",\n  \"threads\": {\"hardware\": ";
  AppendInt(threads_hardware_, &out);
  out += ", \"used\": ";
  AppendInt(threads_used_, &out);
  out += '}';
  if (!read_policy_.empty()) {
    out += ",\n  \"read_policy\": {\"policy\": ";
    AppendQuoted(read_policy_, &out);
    out += ", \"retries\": ";
    AppendInt(read_retries_, &out);
    out += '}';
  }
  if (has_ingest_) {
    out += ",\n  \"ingest\": {\"rows_parsed\": ";
    AppendUint(ingest_.rows_parsed, &out);
    out += ", \"rows_malformed\": ";
    AppendUint(ingest_.rows_malformed, &out);
    out += ", \"rows_duplicate\": ";
    AppendUint(ingest_.rows_duplicate, &out);
    out += ", \"rows_out_of_order\": ";
    AppendUint(ingest_.rows_out_of_order, &out);
    out += ", \"gaps_repaired\": ";
    AppendUint(ingest_.gaps_repaired, &out);
    out += ", \"retries\": ";
    AppendUint(ingest_.retries, &out);
    out += ", \"files_quarantined\": ";
    AppendUint(ingest_.files_quarantined, &out);
    out += '}';
  }
  out += ",\n  \"stages\": [";
  for (size_t i = 0; i < stages_.size(); ++i) {
    const StageRecord& s = stages_[i];
    if (i > 0) out += ',';
    out += "\n    {\"stage\": ";
    AppendQuoted(s.stage, &out);
    out += ", \"seconds\": ";
    AppendSeconds(s.seconds, &out);
    out += ", \"units\": ";
    AppendUint(s.units, &out);
    out += ", \"metrics\": {";
    size_t j = 0;
    for (const auto& [name, delta] : s.metric_deltas) {
      if (j++ > 0) out += ", ";
      AppendQuoted(name, &out);
      out += ": ";
      AppendUint(delta, &out);
    }
    out += "}, \"resources\": {\"cpu_user_seconds\": ";
    AppendSeconds(s.resources.cpu_user_seconds, &out);
    out += ", \"cpu_sys_seconds\": ";
    AppendSeconds(s.resources.cpu_sys_seconds, &out);
    out += ", \"cpu_seconds\": ";
    AppendSeconds(s.cpu_seconds(), &out);
    out += ", \"max_rss_bytes\": ";
    AppendUint(s.resources.max_rss_bytes, &out);
    out += ", \"minor_faults\": ";
    AppendUint(s.resources.minor_faults, &out);
    out += ", \"major_faults\": ";
    AppendUint(s.resources.major_faults, &out);
    out += ", \"alloc_bytes\": ";
    AppendUint(s.resources.alloc_bytes, &out);
    if (const auto efficiency = s.parallel_efficiency(threads_used_)) {
      out += ", \"parallel_efficiency\": ";
      AppendDouble(*efficiency, &out);
    }
    out += "}}";
  }
  out += stages_.empty() ? "]" : "\n  ]";
  // Degraded runs list every quarantined fleet shard with its final Status,
  // so an operator can audit exactly which slices of the fleet are missing
  // from the (still-written) outputs.
  if (degraded_) {
    out += ",\n  \"degraded\": true";
    out += ",\n  \"quarantine\": [";
    for (size_t i = 0; i < quarantine_.size(); ++i) {
      const QuarantineEntry& q = quarantine_[i];
      if (i > 0) out += ',';
      out += "\n    {\"shard\": ";
      AppendInt(q.shard_index, &out);
      out += ", \"attempts\": ";
      AppendInt(q.attempts, &out);
      out += ", \"status\": {\"code\": ";
      AppendQuoted(CodeName(q.status.code()), &out);
      out += ", \"message\": ";
      AppendQuoted(q.status.message(), &out);
      out += "}}";
    }
    out += quarantine_.empty() ? "]" : "\n  ]";
  }
  // Percentile digest of every non-empty histogram (satellite of the
  // profiler PR): manifests carry the latency distribution shape, not just
  // count/sum, without inlining full bucket arrays.
  if (!histograms.empty()) {
    out += ",\n  \"histograms\": {";
    size_t h_index = 0;
    for (const auto& [name, h] : histograms) {
      if (h_index++ > 0) out += ',';
      out += "\n    ";
      AppendQuoted(name, &out);
      out += ": {\"count\": ";
      AppendUint(h.count, &out);
      out += ", \"sum\": ";
      AppendDouble(h.sum, &out);
      out += ", \"p50\": ";
      AppendDouble(HistogramPercentile(h, 0.50), &out);
      out += ", \"p95\": ";
      AppendDouble(HistogramPercentile(h, 0.95), &out);
      out += ", \"p99\": ";
      AppendDouble(HistogramPercentile(h, 0.99), &out);
      out += '}';
    }
    out += "\n  }";
  }
  const std::string_view outcome =
      !failed_ ? "success"
      : (final_status_.code() == StatusCode::kCancelled ||
         final_status_.code() == StatusCode::kDeadlineExceeded)
          ? "cancelled"
          : "failure";
  out += ",\n  \"outcome\": ";
  AppendQuoted(outcome, &out);
  if (failed_) {
    out += ",\n  \"failed_stage\": ";
    AppendQuoted(failed_stage_, &out);
  }
  out += ",\n  \"status\": {\"code\": ";
  AppendQuoted(CodeName(final_status_.code()), &out);
  out += ", \"message\": ";
  AppendQuoted(final_status_.message(), &out);
  out += '}';
  out += ",\n  \"exit_code\": ";
  AppendInt(exit_code_, &out);
  out += ",\n  \"wall_seconds\": ";
  AppendSeconds(wall_seconds, &out);
  out += "\n}\n";
  return out;
}

Status RunManifestBuilder::WriteJson(const std::string& path) const {
  const std::string json = ToJson();
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot open manifest for write: " + path);
  }
  out << json;
  out.flush();
  if (!out) {
    return Status::IoError("manifest write failed: " + path);
  }
  return Status::OK();
}

StageRecord& StageRecord::operator+=(const StageRecord& piece) {
  if (stage.empty()) stage = piece.stage;
  seconds += piece.seconds;
  units += piece.units;
  for (const auto& [name, delta] : piece.metric_deltas) {
    metric_deltas[name] += delta;
  }
  resources.cpu_user_seconds += piece.resources.cpu_user_seconds;
  resources.cpu_sys_seconds += piece.resources.cpu_sys_seconds;
  resources.max_rss_bytes =
      std::max(resources.max_rss_bytes, piece.resources.max_rss_bytes);
  resources.minor_faults += piece.resources.minor_faults;
  resources.major_faults += piece.resources.major_faults;
  resources.alloc_bytes += piece.resources.alloc_bytes;
  return *this;
}

std::optional<double> StageRecord::parallel_efficiency(
    int threads_used) const {
  constexpr double kEfficiencyWallFloorSeconds = 0.01;
  if (threads_used <= 0 || seconds < kEfficiencyWallFloorSeconds) {
    return std::nullopt;
  }
  return cpu_seconds() / (seconds * threads_used);
}

StageTimer::StageTimer(std::string_view stage, RunManifestBuilder* manifest)
    : span_(stage), manifest_(manifest) {
  if (manifest_ != nullptr) Start(stage);
}

StageTimer::StageTimer(std::string_view stage, StageRecord* into)
    : span_(stage), into_(into) {
  if (into_ != nullptr) Start(stage);
}

void StageTimer::Start(std::string_view stage) {
  record_.stage = stage;
  // Fold the profiler accumulators into the registry first, so the before
  // snapshot carries the published prefix and the stage delta is exactly
  // what this stage contributes.
  PublishProfMetrics();
  before_ = MetricsRegistry::Global().Snapshot();
  rusage_before_ = CaptureRusage();
  alloc_bytes_before_ =
      homets::prof::g_alloc_bytes.load(std::memory_order_relaxed);
  start_ = std::chrono::steady_clock::now();
}

StageTimer::~StageTimer() {
  if (manifest_ == nullptr && into_ == nullptr) return;
  record_.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
  PublishProfMetrics();
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : after.counters) {
    const auto it = before_.counters.find(name);
    const uint64_t delta =
        DeltaSince(it == before_.counters.end() ? 0 : it->second, value);
    if (delta > 0) record_.metric_deltas[name] = delta;
  }
  for (const auto& [name, h] : after.histograms) {
    const auto it = before_.histograms.find(name);
    const uint64_t delta = DeltaSince(
        it == before_.histograms.end() ? 0 : it->second.count, h.count);
    if (delta > 0) record_.metric_deltas[name + ".count"] = delta;
  }
  const ResourceUsage now = CaptureRusage();
  StageResources& resources = record_.resources;
  resources.cpu_user_seconds =
      std::max(0.0, now.user_seconds - rusage_before_.user_seconds);
  resources.cpu_sys_seconds =
      std::max(0.0, now.sys_seconds - rusage_before_.sys_seconds);
  resources.max_rss_bytes = now.max_rss_bytes;
  resources.minor_faults =
      DeltaSince(rusage_before_.minor_faults, now.minor_faults);
  resources.major_faults =
      DeltaSince(rusage_before_.major_faults, now.major_faults);
  resources.alloc_bytes = DeltaSince(
      alloc_bytes_before_,
      homets::prof::g_alloc_bytes.load(std::memory_order_relaxed));
  if (manifest_ != nullptr) {
    manifest_->AddStage(std::move(record_));
  } else {
    *into_ += record_;
  }
}

}  // namespace homets::obs
