//===- support/Status.cpp -------------------------------------------------===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Status.h"

namespace sldb {

const char *errorCodeName(ErrorCode C) {
  switch (C) {
  case ErrorCode::Success:
    return "ok";
  case ErrorCode::InternalError:
    return "internal-error";
  case ErrorCode::InvalidIR:
    return "invalid-ir";
  case ErrorCode::VerifyFailure:
    return "verify-failure";
  case ErrorCode::RegAllocFailure:
    return "regalloc-failure";
  case ErrorCode::ResourceExhausted:
    return "resource-exhausted";
  case ErrorCode::InvalidRequest:
    return "invalid-request";
  case ErrorCode::UnknownLevel:
    return "unknown-level";
  case ErrorCode::SourceError:
    return "source-error";
  }
  return "unknown";
}

std::string Status::str() const {
  if (ok())
    return "ok";
  std::string S = errorCodeName(C);
  if (!Msg.empty()) {
    S += ": ";
    S += Msg;
  }
  return S;
}

} // namespace sldb
