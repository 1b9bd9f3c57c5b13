// Lightweight error handling primitives shared by all ParvaGPU libraries.
//
// Recoverable failures (e.g. "this segment does not fit on this GPU",
// "profile point hits out-of-memory") travel through Result<T>; programming
// errors (violated preconditions) throw std::logic_error via PARVA_REQUIRE.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace parva {

/// Error category for recoverable failures. `[[nodiscard]]` like the
/// types below, so a function returning a bare code cannot drop it either.
enum class [[nodiscard]] ErrorCode {
  kInvalidArgument,   ///< caller passed something malformed
  kNotFound,          ///< lookup failed
  kOutOfMemory,       ///< simulated GPU memory exhausted
  kUnsupported,       ///< operation not representable (e.g. illegal MIG placement)
  kCapacityExceeded,  ///< demand exceeds what the scheduler can place
  kInternal,          ///< invariant violated inside a library
};

/// Human-readable name for an ErrorCode.
constexpr const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kOutOfMemory: return "out_of_memory";
    case ErrorCode::kUnsupported: return "unsupported";
    case ErrorCode::kCapacityExceeded: return "capacity_exceeded";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

/// A recoverable error: code plus context message.
class [[nodiscard]] Error {
 public:
  // The constructors that carry an error are `[[nodiscard]]` too, so a
  // temporary built and discarded on the spot (`Status(code, "...");`) is
  // a compile error rather than a lost failure.
  [[nodiscard]] Error(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    return std::string(parva::to_string(code_)) + ": " + message_;
  }

 private:
  ErrorCode code_;
  std::string message_;
};

/// Minimal expected-like container (std::expected is C++23; we target C++20).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : storage_(std::move(value)) {}          // NOLINT(implicit)
  [[nodiscard]] Result(Error error) : storage_(std::move(error)) {}  // NOLINT(implicit)

  bool ok() const { return std::holds_alternative<T>(storage_); }
  explicit operator bool() const { return ok(); }

  /// Value access; throws if this holds an error (programming bug).
  const T& value() const& {
    if (!ok()) throw std::logic_error("Result::value on error: " + error().to_string());
    return std::get<T>(storage_);
  }
  T& value() & {
    if (!ok()) throw std::logic_error("Result::value on error: " + error().to_string());
    return std::get<T>(storage_);
  }
  T&& value() && {
    if (!ok()) throw std::logic_error("Result::value on error: " + error().to_string());
    return std::get<T>(std::move(storage_));
  }

  const Error& error() const {
    if (ok()) throw std::logic_error("Result::error on value");
    return std::get<Error>(storage_);
  }

  /// Returns the value or `fallback` when this holds an error.
  T value_or(T fallback) const& { return ok() ? std::get<T>(storage_) : std::move(fallback); }

 private:
  std::variant<T, Error> storage_;
};

/// Result specialisation for operations with no payload.
class [[nodiscard]] Status {
 public:
  Status() = default;                                     // success
  [[nodiscard]] Status(Error error) : error_(std::move(error)) {}  // NOLINT(implicit)
  [[nodiscard]] Status(ErrorCode code, std::string message)
      : error_(Error(code, std::move(message))) {}

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }
  const Error& error() const {
    if (ok()) throw std::logic_error("Status::error on success");
    return *error_;
  }
  std::string to_string() const { return ok() ? "ok" : error_->to_string(); }

  [[nodiscard]] static Status Ok() { return Status(); }

 private:
  std::optional<Error> error_;
};

}  // namespace parva

/// Precondition check: throws std::logic_error when violated. Use for caller
/// contract violations, never for data-dependent recoverable conditions.
#define PARVA_REQUIRE(cond, msg)                                      \
  do {                                                                \
    if (!(cond)) throw std::logic_error(std::string("precondition failed: ") + (msg)); \
  } while (false)

/// Internal invariant check.
#define PARVA_CHECK(cond, msg)                                        \
  do {                                                                \
    if (!(cond)) throw std::logic_error(std::string("invariant violated: ") + (msg)); \
  } while (false)
