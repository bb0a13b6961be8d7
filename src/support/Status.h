//===- support/Status.h - Exception-free error propagation ------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured error propagation for a code base built with
/// `-fno-exceptions`.  A `Status` carries an error code plus a
/// human-readable message; an `Expected<T>` is either a value or a
/// `Status`.  Recoverable failures in the compilation pipeline (malformed
/// IR reaching instruction selection, register-allocation non-convergence,
/// verifier findings) travel through these instead of `assert`/`abort`,
/// so the drivers can turn them into diagnostics and keep serving — the
/// failure-model contract described in DESIGN.md ("Failure model").
///
/// Library code never prints or exits; it returns Status.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_SUPPORT_STATUS_H
#define SLDB_SUPPORT_STATUS_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace sldb {

/// Coarse error taxonomy (see DESIGN.md "Failure model").
enum class ErrorCode : std::uint8_t {
  Success = 0,
  /// An internal invariant did not hold (a bug in sldb itself); the
  /// result of the failed step must be discarded, but the process and
  /// other compilations are fine.
  InternalError,
  /// The input IR is structurally invalid for the requested operation.
  InvalidIR,
  /// The IR verifier rejected a pass's output.
  VerifyFailure,
  /// The register allocator failed to converge.
  RegAllocFailure,
  /// A resource budget (fuel, recursion depth, frame space) was exceeded.
  ResourceExhausted,
  /// A service request was malformed or named an unknown entity (module,
  /// function, statement, variable).  The request dies; nothing else.
  InvalidRequest,
  /// A request named a pipeline level this build does not know (a future
  /// or misspelled level name).  Answered before any compilation starts,
  /// so the module registry is untouched — nothing is quarantined over a
  /// bad level name.
  UnknownLevel,
  /// The front end rejected the source text; the message is its
  /// diagnostics, verbatim.
  SourceError,
};

const char *errorCodeName(ErrorCode C);

/// An error code plus message.  Default-constructed Status is success.
class Status {
public:
  Status() = default;

  static Status success() { return Status(); }
  static Status error(ErrorCode C, std::string Msg) {
    Status S;
    S.C = C;
    S.Msg = std::move(Msg);
    return S;
  }

  bool ok() const { return C == ErrorCode::Success; }
  ErrorCode code() const { return C; }
  const std::string &message() const { return Msg; }

  /// "error-code: message" (or "ok").
  std::string str() const;

private:
  ErrorCode C = ErrorCode::Success;
  std::string Msg;
};

/// A value or a Status — the exception-free `T`-or-error return type.
template <typename T> class Expected {
public:
  Expected(T Val) : Val(std::move(Val)) {}
  Expected(Status S) : S(std::move(S)) {}

  bool ok() const { return Val.has_value(); }
  explicit operator bool() const { return ok(); }

  T &value() { return *Val; }
  const T &value() const { return *Val; }
  T *operator->() { return &*Val; }
  T &operator*() { return *Val; }

  /// The error; success() when ok().
  const Status &status() const { return S; }

private:
  std::optional<T> Val;
  Status S;
};

} // namespace sldb

#endif // SLDB_SUPPORT_STATUS_H
