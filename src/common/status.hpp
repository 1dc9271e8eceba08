// autogemm::Status / StatusOr — the library's error model.
//
// The runtime serves repeated GEMM traffic; a service-shaped caller needs
// failures to be values it can branch on, not undefined behaviour or a
// process abort. Every hardened entry point (Context::run, Plan::create,
// PackedA/PackedB::create, sim::Interpreter::try_run, the tuning-record
// I/O) reports through this type, and so do the free convenience functions
// over the process-default Context (core/gemm.hpp, core/gemm_ex.hpp).
//
// ## NaN/Inf policy
//
// Matrix *contents* are never scanned: non-finite elements propagate
// through the arithmetic exactly as IEEE-754 dictates, the same contract
// every BLAS offers (a scan would cost O(MN + MK + KN) per call on the hot
// path). Scalar *parameters* (alpha, beta) are validated: a non-finite
// alpha or beta poisons all of C in a way no caller ever intends, so it is
// rejected as kInvalidArgument before any memory is written.
#pragma once

#include <optional>
#include <string>
#include <utility>

namespace autogemm {

enum class StatusCode : int {
  kOk = 0,
  /// Caller passed something structurally wrong: negative dimension,
  /// ld < row width, null data with nonzero extent, aliased C, shape
  /// mismatch, non-finite alpha/beta.
  kInvalidArgument = 1,
  /// Allocation failure (scratch, packing buffers, worker spawn).
  kResourceExhausted = 2,
  /// Persistent data failed validation (corrupt tuning-record line or
  /// checksum); the operation salvaged what it could.
  kDataLoss = 3,
  /// A watchdog budget expired (interpreter step limit, simulator cycle
  /// budget) — the runaway computation was stopped instead of hanging.
  kDeadlineExceeded = 4,
  /// The library itself misbehaved (worker exception, probe mismatch,
  /// illegal generated instruction). Degraded modes hinge on this code.
  kInternal = 5,
  /// The requested path exists but is quarantined/disabled; a fallback
  /// served the request or the caller must use another path.
  kUnavailable = 6,
  /// The operation is not valid in the object's current lifecycle state
  /// (e.g. submitting to a draining serve::Engine). The caller must
  /// observe a state change before the same call can succeed — retrying
  /// blind is useless by definition.
  kFailedPrecondition = 7,
};

inline const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
  }
  return "UNKNOWN";
}

/// Retryability classification — the contract behind
/// serve::Engine::submit_with_retry and any caller-side retry loop.
/// A code is *transient* when the condition it reports is load- or
/// time-dependent, so an identical call a moment later can legitimately
/// succeed; every other code reports something a blind retry will only
/// repeat.
///
/// | code                | transient | rationale                           |
/// |---------------------|-----------|-------------------------------------|
/// | kOk                 | —         | success; nothing to retry           |
/// | kInvalidArgument    | no        | caller bug; the same operands fail  |
/// |                     |           | the same validation every time      |
/// | kResourceExhausted  | yes       | backpressure (full serve queue) or  |
/// |                     |           | allocation pressure; drains as load |
/// |                     |           | and memory pressure subside         |
/// | kDataLoss           | no        | corrupt persistent data does not    |
/// |                     |           | heal on re-read                     |
/// | kDeadlineExceeded   | no        | the request deadline is absolute    |
/// |                     |           | and the sim watchdog budgets are    |
/// |                     |           | deterministic; a retry re-expires   |
/// | kInternal           | no        | library fault; the degradation      |
/// |                     |           | ladder reroutes on its own, a blind |
/// |                     |           | resubmission just repeats the fault |
/// | kUnavailable        | yes       | shed/displaced under overload or an |
/// |                     |           | open circuit breaker; clears when   |
/// |                     |           | load drops / the cooldown elapses   |
/// | kFailedPrecondition | no        | lifecycle state (draining/stopped); |
/// |                     |           | the caller must observe the state   |
/// |                     |           | change, not spin                    |
inline bool is_transient(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kUnavailable;
}

class [[nodiscard]] Status {
 public:
  /// Default-constructed Status is OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Contextual conversion so `if (!records.load_file(path))` keeps
  /// compiling at call sites that predate the Status migration.
  explicit operator bool() const { return ok(); }

  std::string to_string() const {
    if (ok()) return "OK";
    return std::string(status_code_name(code_)) + ": " + message_;
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Shorthand constructors mirroring the code set above.
inline Status InvalidArgumentError(std::string msg) {
  return {StatusCode::kInvalidArgument, std::move(msg)};
}
inline Status ResourceExhaustedError(std::string msg) {
  return {StatusCode::kResourceExhausted, std::move(msg)};
}
inline Status DataLossError(std::string msg) {
  return {StatusCode::kDataLoss, std::move(msg)};
}
inline Status DeadlineExceededError(std::string msg) {
  return {StatusCode::kDeadlineExceeded, std::move(msg)};
}
inline Status InternalError(std::string msg) {
  return {StatusCode::kInternal, std::move(msg)};
}
inline Status UnavailableError(std::string msg) {
  return {StatusCode::kUnavailable, std::move(msg)};
}
inline Status FailedPreconditionError(std::string msg) {
  return {StatusCode::kFailedPrecondition, std::move(msg)};
}

/// Status flavor of the classification above (OK is not transient — there
/// is nothing to retry).
inline bool is_transient(const Status& s) { return is_transient(s.code()); }

/// Propagate a non-OK status to the caller (expression must be a Status).
#define AUTOGEMM_RETURN_IF_ERROR(expr)                   \
  do {                                                   \
    ::autogemm::Status autogemm_status_tmp_ = (expr);    \
    if (!autogemm_status_tmp_.ok()) return autogemm_status_tmp_; \
  } while (false)

/// A Status or a value. Accessing value() on an error state throws
/// std::runtime_error carrying the status text — the bridge between the
/// Status world and the legacy throwing API.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT: implicit
  StatusOr(T value)                                        // NOLINT: implicit
      : value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  explicit operator bool() const { return ok(); }

  const Status& status() const { return status_; }

  const T& value() const& {
    throw_if_error();
    return *value_;
  }
  T& value() & {
    throw_if_error();
    return *value_;
  }
  T&& value() && {
    throw_if_error();
    return std::move(*value_);
  }

  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }

 private:
  void throw_if_error() const;

  Status status_;
  std::optional<T> value_;
};

}  // namespace autogemm

#include <stdexcept>

template <typename T>
void autogemm::StatusOr<T>::throw_if_error() const {
  if (!status_.ok())
    throw std::runtime_error("StatusOr::value on error: " +
                             status_.to_string());
}
