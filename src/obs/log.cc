#include "obs/log.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace homets::obs {

namespace {

// JSON string escaping (same rules as obs/trace.cc — kept local so the two
// files stay independently readable).
void AppendJsonEscaped(std::string_view s, std::string* out) {
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
  AppendJsonEscaped(s, out);
  *out += '"';
}

// Shortest-round-trip double for JSON; bare NaN/Inf are not valid JSON, so
// they are emitted as null (log fields carry measurements, not payloads
// worth inventing an encoding for).
void AppendDouble(double v, std::string* out) {
  if (!(v == v) || v > 1.7976931348623157e308 || v < -1.7976931348623157e308) {
    *out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double round_trip = 0.0;
  std::sscanf(buf, "%lf", &round_trip);
  if (round_trip == v) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%g", v);
    std::sscanf(shorter, "%lf", &round_trip);
    if (round_trip == v) {
      *out += shorter;
      return;
    }
  }
  *out += buf;
}

void AppendFieldValue(const LogField& f, std::string* out) {
  char buf[32];
  switch (f.kind) {
    case LogField::Kind::kInt:
      std::snprintf(buf, sizeof(buf), "%" PRId64, f.int_value);
      *out += buf;
      break;
    case LogField::Kind::kUint:
      std::snprintf(buf, sizeof(buf), "%" PRIu64, f.uint_value);
      *out += buf;
      break;
    case LogField::Kind::kDouble:
      AppendDouble(f.double_value, out);
      break;
    case LogField::Kind::kBool:
      *out += f.bool_value ? "true" : "false";
      break;
    case LogField::Kind::kString:
      AppendQuoted(f.string_value, out);
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

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
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
  std::string out;
  out.reserve(96 + record.message.size());
  char buf[48];
  std::snprintf(buf, sizeof(buf), "{\"ts_us\":%lld,\"level\":",
                static_cast<long long>(record.ts_us));
  out += buf;
  AppendQuoted(LogLevelName(record.level), &out);
  out += ",\"component\":";
  AppendQuoted(record.component, &out);
  out += ",\"msg\":";
  AppendQuoted(record.message, &out);
  std::snprintf(buf, sizeof(buf), ",\"span\":%llu,\"tid\":%u",
                static_cast<unsigned long long>(record.span_id), record.tid);
  out += buf;
  for (const LogField& f : record.fields) {
    out += ',';
    AppendQuoted(f.key, &out);
    out += ':';
    AppendFieldValue(f, &out);
  }
  out += '}';
  return out;
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
    AppendFieldValue(f, &out);
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

Logger::Logger(size_t queue_capacity)
    : min_level_(static_cast<int>(LogLevel::kWarn)),
      stderr_level_(static_cast<int>(LogLevel::kWarn)),
      rate_capacity_(20.0),
      rate_per_sec_(5.0),
      slots_(RoundUpPow2(std::max<size_t>(queue_capacity, 2))),
      slot_mask_(slots_.size() - 1) {
  for (size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].seq.store(i, std::memory_order_relaxed);
  }
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
  MutexLock lock(&drain_mu_);
  DrainLocked();  // flush what the old sinks were promised
  std::FILE* file = nullptr;
  if (!options.file_path.empty()) {
    file = std::fopen(options.file_path.c_str(),
                      options.truncate ? "w" : "a");
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
  {
    MutexLock rate_lock(&rate_mu_);
    rate_capacity_ = options.rate_capacity;
    rate_per_sec_ = options.rate_per_sec;
    buckets_.clear();
  }
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
  {
    MutexLock lock(&rate_mu_);
    auto [it, inserted] = buckets_.try_emplace(
        RateKey{std::string(component), static_cast<int>(level)},
        rate_capacity_, rate_per_sec_);
    if (!it->second.Allow(ts_us)) {
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      static Counter* suppressed_metric =
          MetricsRegistry::Global().GetCounter(kLogSuppressed);
      suppressed_metric->Increment();
      return;
    }
  }
  auto* record = new LogRecord;
  record->ts_us = ts_us;
  record->level = level;
  record->component = std::string(component);
  record->message = std::string(message);
  record->span_id = CurrentSpanId();
  record->tid = CurrentThreadTraceId();
  record->fields = std::move(fields);
  records_.fetch_add(1, std::memory_order_relaxed);
  static Counter* records_metric =
      MetricsRegistry::Global().GetCounter(kLogRecords);
  records_metric->Increment();
  Enqueue(record);
}

void Logger::Enqueue(LogRecord* record) {
  uint64_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = slots_[pos & slot_mask_];
    const uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq == pos) {
      if (head_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        slot.record = record;
        slot.seq.store(pos + 1, std::memory_order_release);
        break;
      }
    } else if (static_cast<int64_t>(seq - pos) < 0) {
      // Full: the slot still holds the previous lap's record. Drop the new
      // one (counted) rather than block the producer.
      delete record;
      dropped_.fetch_add(1, std::memory_order_relaxed);
      static Counter* dropped_metric =
          MetricsRegistry::Global().GetCounter(kLogDropped);
      dropped_metric->Increment();
      return;
    } else {
      pos = head_.load(std::memory_order_relaxed);  // another producer won
    }
  }
  // A failed TryLock means another thread is draining; it or the next
  // record's drain (or Close) emits this one.
  if (drain_mu_.TryLock()) {
    DrainLocked();
    drain_mu_.Unlock();
  }
}

void Logger::DrainLocked() {
  const uint64_t first = tail_;
  for (;;) {
    Slot& slot = slots_[tail_ & slot_mask_];
    // Stops at an empty slot and at one claimed but not yet published.
    if (slot.seq.load(std::memory_order_acquire) != tail_ + 1) break;
    LogRecord* record = slot.record;
    slot.seq.store(tail_ + slots_.size(), std::memory_order_release);
    ++tail_;
    Emit(*record);
    delete record;
  }
  if (file_ != nullptr && tail_ != first) std::fflush(file_);
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
  }
}

void Logger::Close() {
  MutexLock lock(&drain_mu_);
  DrainLocked();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace homets::obs
