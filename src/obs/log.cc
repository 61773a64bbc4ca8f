#include "obs/log.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/json_encoder.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace homets::obs {

namespace {

// Per-(component, severity) token bucket: a burst of 20 records, then 5 a
// second.
constexpr double kRateCapacity = 20.0;
constexpr double kRatePerSec = 5.0;

void EncodeFieldValue(const LogField& f, JsonEncoder* out) {
  switch (f.kind) {
    case LogField::Kind::kInt:
      out->Value(f.int_value);
      break;
    case LogField::Kind::kUint:
      out->Value(f.uint_value);
      break;
    case LogField::Kind::kDouble:
      out->Value(f.double_value);
      break;
    case LogField::Kind::kBool:
      out->Value(f.bool_value);
      break;
    case LogField::Kind::kString:
      out->Value(f.string_value);
      break;
  }
}

char LevelLetter(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return 'D';
    case LogLevel::kInfo:
      return 'I';
    case LogLevel::kWarn:
      return 'W';
    case LogLevel::kError:
      return 'E';
    case LogLevel::kOff:
      break;
  }
  return '?';
}

}  // namespace

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      break;
  }
  return "off";
}

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  for (const LogLevel level :
       {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn, LogLevel::kError,
        LogLevel::kOff}) {
    if (text == LogLevelName(level)) {
      *out = level;
      return true;
    }
  }
  return false;
}

LogField LogField::Int(std::string key, int64_t v) {
  LogField f;
  f.key = std::move(key);
  f.kind = Kind::kInt;
  f.int_value = v;
  return f;
}

LogField LogField::Uint(std::string key, uint64_t v) {
  LogField f;
  f.key = std::move(key);
  f.kind = Kind::kUint;
  f.uint_value = v;
  return f;
}

LogField LogField::Double(std::string key, double v) {
  LogField f;
  f.key = std::move(key);
  f.kind = Kind::kDouble;
  f.double_value = v;
  return f;
}

LogField LogField::Bool(std::string key, bool v) {
  LogField f;
  f.key = std::move(key);
  f.kind = Kind::kBool;
  f.bool_value = v;
  return f;
}

LogField LogField::Str(std::string key, std::string v) {
  LogField f;
  f.key = std::move(key);
  f.kind = Kind::kString;
  f.string_value = std::move(v);
  return f;
}

std::string FormatJsonLine(const LogRecord& record) {
  JsonEncoder out(JsonEncoder::Layout::kSingleLine);
  out.BeginObject()
      .Member("ts_us", record.ts_us)
      .Member("level", LogLevelName(record.level))
      .Member("component", record.component)
      .Member("msg", record.message)
      .Member("span", record.span_id)
      .Member("tid", record.tid);
  for (const LogField& f : record.fields) {
    out.Key(f.key);
    EncodeFieldValue(f, &out);
  }
  out.EndObject();
  return out.str();
}

std::string FormatHumanLine(const LogRecord& record) {
  std::string out;
  out.reserve(64 + record.message.size());
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%c %.6f ", LevelLetter(record.level),
                static_cast<double>(record.ts_us) / 1e6);
  out += buf;
  out += record.component;
  out += ": ";
  out += record.message;
  for (const LogField& f : record.fields) {
    out += ' ';
    out += f.key;
    out += '=';
    JsonEncoder value(JsonEncoder::Layout::kSingleLine);
    EncodeFieldValue(f, &value);
    out += value.str();
  }
  if (record.span_id != 0) {
    std::snprintf(buf, sizeof(buf), " [span %llu]",
                  static_cast<unsigned long long>(record.span_id));
    out += buf;
  }
  return out;
}

bool TokenBucket::Allow(int64_t now_us) {
  if (!primed_) {
    primed_ = true;
    last_us_ = now_us;
  } else if (now_us > last_us_) {
    tokens_ = std::min(
        capacity_, tokens_ + static_cast<double>(now_us - last_us_) / 1e6 *
                                 refill_per_sec_);
    last_us_ = now_us;
  }
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  return false;
}

Logger::~Logger() { Close(); }

Logger& Logger::Global() {
  static Logger* logger = new Logger();  // leaked: usable during exit
  return *logger;
}

int64_t Logger::NowUs() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

Status Logger::Configure(LoggerOptions options) {
  MutexLock lock(&mu_);
  std::FILE* file = nullptr;
  if (!options.file_path.empty()) {
    file = std::fopen(options.file_path.c_str(), "w");
    if (file == nullptr) {
      return Status::IoError("cannot open log file: " + options.file_path);
    }
  }
  if (file_ != nullptr) std::fclose(file_);
  file_ = file;
  min_level_.store(static_cast<int>(options.min_level),
                   std::memory_order_relaxed);
  stderr_level_.store(static_cast<int>(options.stderr_level),
                      std::memory_order_relaxed);
  buckets_.clear();
  return Status::OK();
}

void Logger::Log(LogLevel level, std::string_view component,
                 std::string_view message, std::vector<LogField> fields) {
  if (static_cast<int>(level) < min_level_.load(std::memory_order_relaxed)) {
    return;
  }
  LogAt(NowUs(), level, component, message, std::move(fields));
}

void Logger::LogAt(int64_t ts_us, LogLevel level, std::string_view component,
                   std::string_view message, std::vector<LogField> fields) {
  if (static_cast<int>(level) < min_level_.load(std::memory_order_relaxed)) {
    return;
  }
  MutexLock lock(&mu_);
  auto [it, inserted] = buckets_.try_emplace(
      RateKey{std::string(component), static_cast<int>(level)},
      kRateCapacity, kRatePerSec);
  if (!it->second.Allow(ts_us)) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    static Counter* suppressed_metric =
        MetricsRegistry::Global().GetCounter(kLogSuppressed);
    suppressed_metric->Increment();
    return;
  }
  LogRecord record;
  record.ts_us = ts_us;
  record.level = level;
  record.component = std::string(component);
  record.message = std::string(message);
  record.span_id = CurrentSpanId();
  record.tid = CurrentThreadTraceId();
  record.fields = std::move(fields);
  records_.fetch_add(1, std::memory_order_relaxed);
  static Counter* records_metric =
      MetricsRegistry::Global().GetCounter(kLogRecords);
  records_metric->Increment();
  Emit(record);
}

void Logger::Emit(const LogRecord& record) {
  if (static_cast<int>(record.level) >=
      stderr_level_.load(std::memory_order_relaxed)) {
    const std::string line = FormatHumanLine(record);
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  if (file_ != nullptr) {
    const std::string line = FormatJsonLine(record);
    std::fprintf(file_, "%s\n", line.c_str());
    std::fflush(file_);
  }
}

void Logger::Close() {
  MutexLock lock(&mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace homets::obs
