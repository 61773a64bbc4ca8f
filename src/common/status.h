#ifndef HOMETS_COMMON_STATUS_H_
#define HOMETS_COMMON_STATUS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace homets {

/// \brief Machine-readable classification of an error.
///
/// Mirrors the Arrow/RocksDB convention of a small closed set of codes plus a
/// free-form message. `kOk` is the only non-error code.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kAlreadyExists = 4,
  kFailedPrecondition = 5,
  kComputeError = 6,
  kIoError = 7,
  kNotImplemented = 8,
  kUnknown = 9,
  kCancelled = 10,
  kDeadlineExceeded = 11,
};

/// \brief Returns the canonical name of a status code, e.g. "InvalidArgument".
std::string_view StatusCodeToString(StatusCode code);

/// \brief Result of a fallible operation: a code plus a human-readable
/// message.
///
/// The library does not throw exceptions across public API boundaries; every
/// fallible function returns `Status` or `Result<T>`. `Status` is cheap to
/// copy in the OK case (no message allocation). `[[nodiscard]]` makes a
/// dropped `Status` a warning, which the top-level build turns into an
/// error (`-Werror=unused-result`); discard one on purpose with `(void)`.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per error code.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ComputeError(std::string msg) {
    return Status(StatusCode::kComputeError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Unknown(std::string msg) {
    return Status(StatusCode::kUnknown, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// \brief Either a value of type `T` or an error `Status`.
///
/// A lightweight `std::expected` stand-in (the toolchain targets C++20).
/// Accessing the value of an errored result aborts, so callers must check
/// `ok()` first; `ValueOr` provides a non-aborting accessor. Like `Status`,
/// a dropped `Result` does not compile in the top-level build.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value: enables `return value;` in functions
  /// returning `Result<T>`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from an error status. Constructing from an OK
  /// status is a programming error and yields StatusCode::kUnknown.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = Status::Unknown("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }

  /// The error, or OK when a value is present.
  const Status& status() const { return status_; }

  /// The contained value; aborts if `!ok()`.
  const T& value() const& { return value_.value(); }
  T& value() & { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }

  /// The value when present, otherwise `fallback`.
  T ValueOr(T fallback) const {
    return value_.has_value() ? *value_ : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;  // OK when value_ is set.
};

/// Propagates an error status from an expression returning `Status`.
/// Canonical spelling; usable in functions returning `Status` or `Result<T>`
/// (a `Result` is implicitly constructible from an error status).
#define HOMETS_RETURN_IF_ERROR(expr)            \
  do {                                          \
    ::homets::Status _st = (expr);              \
    if (!_st.ok()) return _st;                  \
  } while (false)

/// Assigns the value of a `Result<T>` expression to `lhs`, or propagates its
/// error status.
#define HOMETS_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value()

#define HOMETS_ASSIGN_OR_RETURN_CONCAT(a, b) a##b
#define HOMETS_ASSIGN_OR_RETURN_NAME(a, b) HOMETS_ASSIGN_OR_RETURN_CONCAT(a, b)
#define HOMETS_ASSIGN_OR_RETURN(lhs, expr)                                  \
  HOMETS_ASSIGN_OR_RETURN_IMPL(                                             \
      HOMETS_ASSIGN_OR_RETURN_NAME(_homets_result_, __COUNTER__), lhs, expr)

}  // namespace homets

#endif  // HOMETS_COMMON_STATUS_H_
