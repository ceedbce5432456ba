// Error handling for the cpm library.
//
// The library throws cpm::Error (derived from std::runtime_error) for all
// recoverable contract violations: invalid model parameters, unstable
// queueing systems passed to analytical evaluators, infeasible optimisation
// problems, and so on. Internal invariants use assert().
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace cpm {

/// Exception type thrown by every cpm module for invalid input or
/// analytically meaningless requests (e.g. delay of an unstable queue).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws cpm::Error with `msg` when `cond` is false. Used to validate
/// public-API preconditions; cheap enough to keep enabled in release builds.
/// A message must cost nothing until it is thrown: arguments are evaluated
/// before the test, so `require(ok, "station '" + name + "' ...")` would
/// allocate and concatenate on every call, thrown or not (profiling showed
/// such messages dominating the simulator hot path and the analytic
/// evaluator). Pass a literal, or pass the pieces to the variadic overload
/// below, which joins them only on failure. tools/lint_cpp.py rule PERF-1
/// rejects `+` in a require() message.
inline void require(bool cond, const char* msg) {
  if (!cond) throw Error(msg);
}

inline void require(bool cond, const std::string& msg) {
  if (!cond) throw Error(msg);
}

namespace detail {

inline void append_part(std::string& out, std::string_view part) { out += part; }

template <typename T>
  requires std::is_arithmetic_v<T> && (!std::is_same_v<T, char>) &&
           (!std::is_same_v<T, bool>)
void append_part(std::string& out, T part) {
  out += std::to_string(part);
}

template <typename... Parts>
[[noreturn]] void throw_joined(const Parts&... parts) {
  std::string msg;
  (append_part(msg, parts), ...);
  throw Error(msg);
}

}  // namespace detail

/// Throws cpm::Error whose message is the concatenation of `parts` when
/// `cond` is false. Strings are appended as they are and numbers as
/// std::to_string formats them, so require(ok, "line ", n, ": bad") throws
/// exactly what "line " + std::to_string(n) + ": bad" would, but builds it
/// only when it throws.
template <typename... Parts>
  requires(sizeof...(Parts) >= 2)
void require(bool cond, const Parts&... parts) {
  if (!cond) [[unlikely]]
    detail::throw_joined(parts...);
}

}  // namespace cpm
