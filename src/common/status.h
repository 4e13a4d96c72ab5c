#ifndef MTDB_COMMON_STATUS_H_
#define MTDB_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace mtdb {

// Error codes used across the platform. Modeled on the RocksDB/Arrow Status
// idiom: every fallible public API returns a Status (or Result<T>), and no
// exceptions cross API boundaries.
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  // Transaction was aborted (explicitly, by a failed replica write, or by
  // the 2PC coordinator).
  kAborted,
  // Transaction was chosen as a deadlock victim by the lock manager.
  kDeadlock,
  // Lock wait exceeded the configured timeout.
  kLockTimeout,
  // The target machine/engine is failed or shutting down.
  kUnavailable,
  // Operation proactively rejected by the cluster controller (e.g. a write
  // to a table that is currently being copied during recovery). These are
  // the "proactively rejected transactions" of the paper's SLA model.
  kRejected,
  // SQL text could not be parsed or bound.
  kParseError,
  // Internal invariant violation.
  kInternal,
  // Operation not valid in the current state.
  kFailedPrecondition,
  // Resource capacity exceeded (SLA placement).
  kResourceExhausted,
};

// Returns a stable human-readable name, e.g. "Deadlock".
std::string_view StatusCodeName(StatusCode code);

// A lightweight success-or-error value. Copyable; the OK status carries no
// allocation.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Deadlock(std::string msg) {
    return Status(StatusCode::kDeadlock, std::move(msg));
  }
  static Status LockTimeout(std::string msg) {
    return Status(StatusCode::kLockTimeout, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Rejected(std::string msg) {
    return Status(StatusCode::kRejected, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // True for outcomes that abort the enclosing transaction but are inherent
  // to concurrent execution (deadlock victim, lock timeout) as opposed to
  // failures of the platform itself.
  bool IsTransientAbort() const {
    return code_ == StatusCode::kDeadlock || code_ == StatusCode::kLockTimeout;
  }

  // "Code: message" rendering for logs and error surfaces.
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace mtdb

// Propagates a non-OK status to the caller. Usable in any function that
// returns Status.
#define MTDB_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::mtdb::Status _mtdb_status = (expr);           \
    if (!_mtdb_status.ok()) return _mtdb_status;    \
  } while (0)

#endif  // MTDB_COMMON_STATUS_H_
