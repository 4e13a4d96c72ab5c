#include "src/common/status.h"

namespace mtdb {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kAborted:
      return "Aborted";
    case StatusCode::kDeadlock:
      return "Deadlock";
    case StatusCode::kLockTimeout:
      return "LockTimeout";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kRejected:
      return "Rejected";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string result(StatusCodeName(code_));
  if (!message_.empty()) {
    result += ": ";
    result += message_;
  }
  return result;
}

}  // namespace mtdb
