#include "obs/report.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "obs/json_encoder.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define HOMETS_OBS_HAS_RUSAGE 1
#else
#define HOMETS_OBS_HAS_RUSAGE 0
#endif

namespace homets::obs {

namespace {

// Local code → canonical name map: StatusCodeToString lives in
// homets_common, which obs must not link.
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

uint64_t DeltaSince(uint64_t before, uint64_t after) {
  return after > before ? after - before : 0;
}

}  // namespace

ResourceUsage CaptureRusage() {
  ResourceUsage out;
#if HOMETS_OBS_HAS_RUSAGE
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  if (getrusage(RUSAGE_SELF, &ru) != 0) return out;
  out.user_seconds = static_cast<double>(ru.ru_utime.tv_sec) +
                     static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  out.sys_seconds = static_cast<double>(ru.ru_stime.tv_sec) +
                    static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
#if defined(__APPLE__)
  out.max_rss_bytes = static_cast<uint64_t>(ru.ru_maxrss);
#else
  // Linux reports ru_maxrss in kilobytes.
  out.max_rss_bytes = static_cast<uint64_t>(ru.ru_maxrss) * 1024;
#endif
  out.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
  out.major_faults = static_cast<uint64_t>(ru.ru_majflt);
#endif
  return out;
}

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
  const auto status_object = [](const Status& status, JsonEncoder* out) {
    out->BeginObject()
        .Member("code", CodeName(status.code()))
        .Member("message", status.message())
        .EndObject();
  };
  JsonEncoder out;
  out.BeginObject()
      .Member("schema_version", kSchemaVersion)
      .Member("tool", tool_)
      .Member("command", command_)
      .Key("config")
      .BeginObject();
  for (const auto& [key, value] : config_) out.Member(key, value);
  out.EndObject().Key("inputs").BeginArray();
  for (const Input& input : inputs_) {
    out.BeginObject()
        .Member("path", input.path)
        .Member("format", input.format)
        .Member("bytes", input.bytes)
        .EndObject();
  }
  out.EndArray();
  if (has_failpoints_) {
    out.Key("failpoints")
        .BeginObject()
        .Member("spec", failpoint_spec_)
        .Member("seed", failpoint_seed_)
        .EndObject();
  }
  out.Key("threads")
      .BeginObject()
      .Member("hardware", threads_hardware_)
      .Member("used", threads_used_)
      .EndObject();
  if (!read_policy_.empty()) {
    out.Key("read_policy")
        .BeginObject()
        .Member("policy", read_policy_)
        .Member("retries", read_retries_)
        .EndObject();
  }
  if (has_ingest_) {
    out.Key("ingest")
        .BeginObject()
        .Member("rows_parsed", ingest_.rows_parsed)
        .Member("rows_malformed", ingest_.rows_malformed)
        .Member("rows_duplicate", ingest_.rows_duplicate)
        .Member("retries", ingest_.retries)
        .Member("files_quarantined", ingest_.files_quarantined)
        .EndObject();
  }
  out.Key("stages").BeginArray();
  for (const StageRecord& s : stages_) {
    out.BeginObject()
        .Member("stage", s.stage)
        .Member("seconds", s.seconds)
        .Member("units", s.units)
        .Key("metrics")
        .BeginObject();
    for (const auto& [name, delta] : s.metric_deltas) out.Member(name, delta);
    out.EndObject()
        .Key("resources")
        .BeginObject()
        .Member("cpu_user_seconds", s.resources.cpu_user_seconds)
        .Member("cpu_sys_seconds", s.resources.cpu_sys_seconds)
        .Member("cpu_seconds", s.cpu_seconds())
        .Member("max_rss_bytes", s.resources.max_rss_bytes)
        .Member("minor_faults", s.resources.minor_faults)
        .Member("major_faults", s.resources.major_faults);
    if (const auto efficiency = s.parallel_efficiency(threads_used_)) {
      out.Member("parallel_efficiency", *efficiency);
    }
    out.EndObject().EndObject();
  }
  out.EndArray();
  // Degraded runs list every quarantined fleet shard with its final Status,
  // so an operator can audit exactly which slices of the fleet are missing
  // from the (still-written) outputs.
  if (degraded_) {
    out.Member("degraded", true).Key("quarantine").BeginArray();
    for (const QuarantineEntry& q : quarantine_) {
      out.BeginObject()
          .Member("shard", q.shard_index)
          .Member("attempts", q.attempts)
          .Key("status");
      status_object(q.status, &out);
      out.EndObject();
    }
    out.EndArray();
  }
  // Percentile digest of every non-empty histogram: manifests carry the
  // latency distribution shape, not just count/sum, without inlining full
  // bucket arrays.
  if (!histograms.empty()) {
    out.Key("histograms").BeginObject();
    for (const auto& [name, h] : histograms) {
      out.Key(name)
          .BeginObject()
          .Member("count", h.count)
          .Member("sum", h.sum)
          .Member("p50", HistogramPercentile(h, 0.50))
          .Member("p95", HistogramPercentile(h, 0.95))
          .Member("p99", HistogramPercentile(h, 0.99))
          .EndObject();
    }
    out.EndObject();
  }
  const std::string_view outcome =
      !failed_ ? "success"
      : (final_status_.code() == StatusCode::kCancelled ||
         final_status_.code() == StatusCode::kDeadlineExceeded)
          ? "cancelled"
          : "failure";
  out.Member("outcome", outcome);
  if (failed_) out.Member("failed_stage", failed_stage_);
  out.Key("status");
  status_object(final_status_, &out);
  out.Member("exit_code", exit_code_).Member("wall_seconds", wall_seconds);
  out.EndObject();
  return out.str();
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
  before_ = MetricsRegistry::Global().Snapshot();
  rusage_before_ = CaptureRusage();
  start_ = std::chrono::steady_clock::now();
}

StageTimer::~StageTimer() {
  if (manifest_ == nullptr && into_ == nullptr) return;
  record_.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
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
  if (manifest_ != nullptr) {
    manifest_->AddStage(std::move(record_));
  } else {
    *into_ += record_;
  }
}

}  // namespace homets::obs
