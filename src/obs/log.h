#ifndef HOMETS_OBS_LOG_H_
#define HOMETS_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

// common/mutex.h and common/status.h are header-only for everything used
// here, so homets_obs stays free of link dependencies even though obs sits
// below homets_common in the layering (same contract as obs/metrics.h).
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

// Structured run logging: JSON-lines records (severity, component, message,
// typed key/value fields, monotonic timestamp, current trace-span id) with a
// deterministic per-(component, severity) token-bucket rate limiter, a
// human-readable stderr sink, and an optional JSONL file sink.
//
// Hot-path contract: a call below the configured minimum level is a single
// relaxed atomic load and an immediate return, so library instrumentation is
// compiled in everywhere (the default level is kWarn — narration costs
// nothing unless a run opts in). An admitted record is handled synchronously
// under one mutex: the rate limiter, formatting and both sink writes (the
// file is flushed per record). Records come from error, retry and file-open
// paths, so the lock is never hot.
namespace homets::obs {

/// \brief Record severity, ordered so `level >= min_level` is the filter.
enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  ///< sink threshold meaning "never"; not a record level
};

/// Canonical lowercase name ("debug", "info", "warn", "error", "off").
std::string_view LogLevelName(LogLevel level);

/// Parses a canonical level name; false (and `*out` untouched) on anything
/// else. Accepts exactly the LogLevelName spellings.
bool ParseLogLevel(std::string_view text, LogLevel* out);

/// \brief One typed key/value pair attached to a record.
struct LogField {
  enum class Kind { kInt, kUint, kDouble, kBool, kString };

  std::string key;
  Kind kind = Kind::kInt;
  int64_t int_value = 0;
  uint64_t uint_value = 0;
  double double_value = 0.0;
  bool bool_value = false;
  std::string string_value;

  static LogField Int(std::string key, int64_t v);
  static LogField Uint(std::string key, uint64_t v);
  static LogField Double(std::string key, double v);
  static LogField Bool(std::string key, bool v);
  static LogField Str(std::string key, std::string v);
};

/// \brief One structured log record.
struct LogRecord {
  int64_t ts_us = 0;  ///< µs on the process-wide monotonic log clock
  LogLevel level = LogLevel::kInfo;
  std::string component;  ///< dotted source module, e.g. "io.csv"
  std::string message;
  uint64_t span_id = 0;  ///< innermost open trace span (0 = none)
  uint32_t tid = 0;      ///< CurrentThreadTraceId — joins with the trace
  std::vector<LogField> fields;
};

/// One JSONL line (no trailing newline):
/// {"ts_us":N,"level":"warn","component":"io.csv","msg":"...","span":N,
///  "tid":N,<fields...>}. Field keys land as top-level members after the
/// fixed header keys; strings are escaped, doubles use shortest round-trip.
std::string FormatJsonLine(const LogRecord& record);

/// Human-readable single line for the stderr sink (no trailing newline):
/// `W 12.345678 io.csv: message key=value ... [span N]`.
std::string FormatHumanLine(const LogRecord& record);

/// \brief Deterministic token bucket fed explicit timestamps.
///
/// Starts full; Allow(now_us) refills `refill_per_sec` tokens per elapsed
/// second (fractional accumulation, capped at `capacity`) and spends one
/// token when available. Pure state machine over the timestamps it is shown
/// — identical call sequences give identical verdicts, which is what the
/// rate-limiter determinism tests pin down.
class TokenBucket {
 public:
  TokenBucket(double capacity, double refill_per_sec)
      : capacity_(capacity), refill_per_sec_(refill_per_sec),
        tokens_(capacity) {}

  bool Allow(int64_t now_us);

  double tokens() const { return tokens_; }

 private:
  double capacity_;
  double refill_per_sec_;
  double tokens_;
  int64_t last_us_ = 0;
  bool primed_ = false;  ///< first Allow anchors last_us_ without refilling
};

/// \brief Logger configuration; Configure() swaps the whole set atomically
/// with respect to a record being written.
struct LoggerOptions {
  /// Records below this are dropped at the call site (one relaxed load).
  LogLevel min_level = LogLevel::kWarn;
  /// Human-readable sink threshold; kOff silences stderr entirely.
  LogLevel stderr_level = LogLevel::kWarn;
  /// JSONL sink path; empty disables the file sink. Configure truncates it.
  std::string file_path;
};

/// \brief Thread-safe structured logger (see file comment for the path a
/// record takes). One process-wide instance via Global(); tests construct
/// their own.
class Logger {
 public:
  Logger() = default;
  ~Logger();
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  static Logger& Global();

  /// Applies `options`: swaps levels and sinks and refills every rate
  /// bucket. IoError when file_path cannot be opened (sinks are left as
  /// before on failure).
  Status Configure(LoggerOptions options) HOMETS_EXCLUDES(mu_);

  /// Stamps the monotonic clock, current span id and thread id, applies the
  /// level filter and rate limiter, and writes the record to both sinks
  /// before returning. Cheap no-op below min_level.
  void Log(LogLevel level, std::string_view component,
           std::string_view message, std::vector<LogField> fields = {});

  /// Deterministic seam: like Log but with a caller-supplied timestamp
  /// driving both the record and the rate limiter. Tests use this to pin
  /// down suppression sequences without real clocks.
  void LogAt(int64_t ts_us, LogLevel level, std::string_view component,
             std::string_view message, std::vector<LogField> fields = {})
      HOMETS_EXCLUDES(mu_);

  /// Closes the file sink (stderr sink stays). Idempotent.
  void Close() HOMETS_EXCLUDES(mu_);

  LogLevel min_level() const {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }

  /// True when `level` would pass the call-site filter — for callers that
  /// want to skip building expensive field values.
  bool Enabled(LogLevel level) const {
    return static_cast<int>(level) >=
           min_level_.load(std::memory_order_relaxed);
  }

  // Lifetime tallies (also exported as homets.log.* metrics when the
  // global metrics registry is in use).
  uint64_t records_logged() const {
    return records_.load(std::memory_order_relaxed);
  }
  uint64_t records_suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }

  /// µs on the logger's process-wide monotonic clock (0 at first use).
  static int64_t NowUs();

 private:
  struct RateKey {
    std::string component;
    int level;
    bool operator==(const RateKey& o) const {
      return level == o.level && component == o.component;
    }
  };
  struct RateKeyHash {
    size_t operator()(const RateKey& k) const {
      return std::hash<std::string>()(k.component) * 31 +
             static_cast<size_t>(k.level);
    }
  };

  void Emit(const LogRecord& record) HOMETS_REQUIRES(mu_);

  std::atomic<int> min_level_{static_cast<int>(LogLevel::kWarn)};
  std::atomic<int> stderr_level_{static_cast<int>(LogLevel::kWarn)};

  Mutex mu_;  ///< serializes the rate limiter, Configure, Close and sinks
  std::unordered_map<RateKey, TokenBucket, RateKeyHash> buckets_
      HOMETS_GUARDED_BY(mu_);
  std::FILE* file_ HOMETS_GUARDED_BY(mu_) = nullptr;

  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> suppressed_{0};
};

// Convenience wrappers over Logger::Global().
inline void LogDebug(std::string_view component, std::string_view message,
                     std::vector<LogField> fields = {}) {
  Logger::Global().Log(LogLevel::kDebug, component, message,
                       std::move(fields));
}
inline void LogInfo(std::string_view component, std::string_view message,
                    std::vector<LogField> fields = {}) {
  Logger::Global().Log(LogLevel::kInfo, component, message,
                       std::move(fields));
}
inline void LogWarn(std::string_view component, std::string_view message,
                    std::vector<LogField> fields = {}) {
  Logger::Global().Log(LogLevel::kWarn, component, message,
                       std::move(fields));
}
inline void LogError(std::string_view component, std::string_view message,
                     std::vector<LogField> fields = {}) {
  Logger::Global().Log(LogLevel::kError, component, message,
                       std::move(fields));
}

}  // namespace homets::obs

#endif  // HOMETS_OBS_LOG_H_
