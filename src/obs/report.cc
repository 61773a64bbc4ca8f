#include "obs/report.h"

#include <fstream>

#include "obs/json_encoder.h"

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
  ingest_.retries += counters.retries;
  ingest_.files_truncated += counters.files_truncated;
}

void RunManifestBuilder::AddStage(StageRecord record) {
  MutexLock lock(&mu_);
  stages_.push_back(std::move(record));
}

std::vector<StageRecord> RunManifestBuilder::Stages() const {
  MutexLock lock(&mu_);
  return stages_;
}

void RunManifestBuilder::AddStageCall(const std::string& stage,
                                      const StageSum& call) {
  MutexLock lock(&mu_);
  StageSum& sum = stage_sums_[stage];
  sum.calls += call.calls;
  sum.seconds += call.seconds;
  sum.self_seconds += call.self_seconds;
  sum.self += call.self;
}

std::map<std::string, StageSum> RunManifestBuilder::StageSums() const {
  MutexLock lock(&mu_);
  return stage_sums_;
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
        .Member("files_truncated", ingest_.files_truncated)
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
        .Member("cpu_seconds", s.resources.cpu_seconds())
        .Member("max_rss_bytes", s.resources.max_rss_bytes)
        .Member("minor_faults", s.resources.minor_faults)
        .Member("major_faults", s.resources.major_faults);
    if (const auto efficiency = s.parallel_efficiency(threads_used_)) {
      out.Member("parallel_efficiency", *efficiency);
    }
    out.EndObject().EndObject();
  }
  out.EndArray();
  if (!stage_sums_.empty()) {
    out.Key("stage_sums").BeginArray();
    for (const auto& [stage, sum] : stage_sums_) {
      out.BeginObject()
          .Member("stage", stage)
          .Member("calls", sum.calls)
          .Member("seconds", sum.seconds)
          .Member("self_seconds", sum.self_seconds)
          .Member("self_cpu_seconds", sum.self.cpu_seconds())
          .Member("self_minor_faults", sum.self.minor_faults)
          .EndObject();
    }
    out.EndArray();
  }
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

}  // namespace homets::obs
