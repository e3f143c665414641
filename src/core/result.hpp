// Recoverable-error results — the DESIGN.md §4.7 error-handling contract.
//
// Recoverable misuse of the public API (shape mismatches, incompatible
// operand sizes) is reported as a value, not an exception: callers that can
// recover inspect `ok()` / `error()`, callers that cannot simply call
// `value()` and get the old throwing behaviour. True precondition bugs
// (invalid configurations, violated internal invariants) keep throwing via
// AABFT_REQUIRE / AABFT_ASSERT — those indicate a defect, not bad input.
//
// This is the promised `std::expected`-style `Result<T>` with
// std::variant backing (C++20; no external expected dependency).
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace aabft {

/// Why a recoverable operation was refused.
enum class ErrorCode {
  kShapeMismatch,   ///< operand dimensions are incompatible
  kInvalidArgument, ///< an argument value is outside the accepted domain
  kExecutionFailed, ///< a pipeline or scheme call failed to complete
  kOverloaded,      ///< admission refused: the request queue is full
  kDeadlineInfeasible, ///< admission refused: the deadline cannot be met
  kUnsupportedOp,   ///< the scheme does not implement the requested op kind
  kUnavailable,     ///< required data or devices are fenced beyond recovery
};

struct Error {
  ErrorCode code = ErrorCode::kInvalidArgument;
  std::string message;
};

/// Value-or-error. Construct from a T (success) or an Error (failure).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}                  // NOLINT(google-explicit-constructor)
  Result(Error error) : v_(std::move(error)) {}              // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const noexcept { return std::holds_alternative<T>(v_); }
  explicit operator bool() const noexcept { return ok(); }

  /// The success value. Throws std::invalid_argument carrying the error
  /// message when the result holds an error — so code that does not check
  /// fails exactly as loudly as the old AABFT_REQUIRE-based API did.
  [[nodiscard]] T& value() & {
    require_ok();
    return std::get<T>(v_);
  }
  [[nodiscard]] const T& value() const& {
    require_ok();
    return std::get<T>(v_);
  }
  [[nodiscard]] T&& value() && {
    require_ok();
    return std::get<T>(std::move(v_));
  }

  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }

  /// The error. Only valid when !ok().
  [[nodiscard]] const Error& error() const { return std::get<Error>(v_); }

  [[nodiscard]] T value_or(T fallback) const& {
    return ok() ? std::get<T>(v_) : std::move(fallback);
  }

 private:
  void require_ok() const {
    if (!ok())
      throw std::invalid_argument("Result::value() on error: " +
                                  std::get<Error>(v_).message);
  }

  std::variant<T, Error> v_;
};

/// Shorthand for the common shape-mismatch refusal.
[[nodiscard]] inline Error shape_error(std::string message) {
  return Error{ErrorCode::kShapeMismatch, std::move(message)};
}

/// Shorthand for refusing an operation kind a scheme does not implement.
[[nodiscard]] inline Error unsupported_op_error(std::string message) {
  return Error{ErrorCode::kUnsupportedOp, std::move(message)};
}

}  // namespace aabft
