// Error-code based result type used across the HVAC library.
//
// The library deliberately avoids exceptions on its hot paths (reads
// intercepted from a training loop); every fallible operation returns
// Result<T>, an expected-like sum type of a value and an Error. The
// POSIX-facing layers map Error::code back onto errno values so that
// the LD_PRELOAD shim can surface faithful error semantics to the
// application.
#pragma once

#include <cassert>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace hvac {

// Stable error taxonomy. Values are part of the wire protocol (the RPC
// layer ships them between client and server), so only append.
enum class ErrorCode : int {
  kOk = 0,
  kNotFound = 1,        // ENOENT
  kPermission = 2,      // EACCES
  kIoError = 3,         // EIO
  kInvalidArgument = 4, // EINVAL
  kUnavailable = 5,     // server unreachable / connection refused
  kTimeout = 6,         // deadline exceeded
  kExists = 7,          // EEXIST
  kCapacity = 8,        // cache full and eviction failed / ENOSPC
  kProtocol = 9,        // malformed RPC frame
  kBadFd = 10,          // EBADF
  kCancelled = 11,      // queue closed / shutdown in progress
  kUnimplemented = 12,
  kInternal = 13,
  // Server-internal, never on the wire: a reactor-thread attempt that
  // needs blocking work (a cache miss) and must be re-run pooled.
  kWouldBlock = 14,
};

const char* error_code_name(ErrorCode code);

// Maps an ErrorCode onto the closest errno value (for the shim).
int error_code_to_errno(ErrorCode code);
ErrorCode errno_to_error_code(int err);

struct [[nodiscard]] Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  Error() = default;
  Error(ErrorCode c, std::string msg) : code(c), message(std::move(msg)) {}

  static Error from_errno(int err, const std::string& context) {
    return Error(errno_to_error_code(err),
                 context + ": " + std::strerror(err));
  }

  std::string to_string() const {
    return std::string(error_code_name(code)) + ": " + message;
  }
};

// Result<T>: either a T or an Error. Result<void> is supported through
// the Status alias below.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : rep_(std::move(value)) {}  // NOLINT implicit
  Result(Error error) : rep_(std::move(error)) {}  // NOLINT implicit

  bool ok() const { return std::holds_alternative<T>(rep_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(rep_));
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  T value_or(T fallback) const& { return ok() ? value() : fallback; }

  const Error& error() const {
    assert(!ok());
    return std::get<Error>(rep_);
  }

 private:
  std::variant<T, Error> rep_;
};

// Result<void> analogue.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(Error error) : error_(std::move(error)) {}  // NOLINT implicit

  static Status Ok() { return Status(); }

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  const Error& error() const {
    assert(!ok());
    return *error_;
  }

 private:
  std::optional<Error> error_;
};

}  // namespace hvac

// Propagates the error of a Result/Status expression, binding the value
// (if any) is the caller's job. Usage:
//   HVAC_RETURN_IF_ERROR(do_thing());
#define HVAC_RETURN_IF_ERROR(expr)               \
  do {                                           \
    auto hvac_status_ = (expr);                  \
    if (!hvac_status_.ok()) {                    \
      return hvac_status_.error();               \
    }                                            \
  } while (0)

// Assigns the value of a Result expression to `lhs`, or returns its
// error. Usage: HVAC_ASSIGN_OR_RETURN(auto fd, open_file(path));
#define HVAC_ASSIGN_OR_RETURN(lhs, expr)          \
  HVAC_ASSIGN_OR_RETURN_IMPL_(                    \
      HVAC_RESULT_CONCAT_(hvac_result_, __LINE__), lhs, expr)
#define HVAC_RESULT_CONCAT_INNER_(a, b) a##b
#define HVAC_RESULT_CONCAT_(a, b) HVAC_RESULT_CONCAT_INNER_(a, b)
#define HVAC_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                \
  if (!tmp.ok()) {                                  \
    return tmp.error();                             \
  }                                                 \
  lhs = std::move(tmp).value()
