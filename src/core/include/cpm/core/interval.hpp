// Closed-interval arithmetic with outward rounding.
//
// cpm::certify evaluates the analytic pipeline over parameter boxes by
// running the same formulas on Interval values. The conventions
// (docs/certify.md, "Interval semantics"):
//
//   * Outward rounding: a result computed from at least one non-degenerate
//     operand has each finite endpoint moved out by one ulp, so it
//     contains the exact real result despite double rounding.
//   * Point exactness: when every operand is a point the result is the
//     ordinary double result, unwidened, so a chain of point operations
//     equals the same chain in doubles.
//   * 0 * inf = 0: infinite endpoints are bounds, never attained values.
//   * Division by a denominator touching zero yields the sound half-line
//     (or the whole line when both operands straddle zero) instead of
//     throwing; NaN corner quotients such as inf/inf are skipped.
#pragma once

namespace cpm::core {

struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  /// The degenerate interval [x, x].
  static Interval point(double x) { return Interval{x, x}; }

  /// Validating constructor: throws cpm::Error on NaN endpoints or lo > hi.
  static Interval make(double lo, double hi);

  [[nodiscard]] bool is_point() const;
  [[nodiscard]] bool contains(double x) const { return lo <= x && x <= hi; }
  [[nodiscard]] bool contains(const Interval& other) const {
    return lo <= other.lo && other.hi <= hi;
  }
  [[nodiscard]] double width() const { return hi - lo; }

  /// Split point for bisection: the arithmetic midpoint of a finite
  /// interval; the finite endpoint of a half-line; 0 for the whole line.
  [[nodiscard]] double midpoint() const;
};

Interval operator+(const Interval& a, const Interval& b);
Interval operator-(const Interval& a, const Interval& b);
Interval operator*(const Interval& a, const Interval& b);
Interval operator/(const Interval& a, const Interval& b);

/// Moves every finite endpoint outward by one ulp.
Interval widen(const Interval& x);

/// The smallest interval containing both operands.
Interval hull(const Interval& a, const Interval& b);

/// x^p for a non-negative base (throws cpm::Error when x.lo < 0).
Interval pow_nonneg(const Interval& x, double p);

/// Pointwise max(x, c): both endpoints clamped from below, no widening.
Interval max_with(const Interval& x, double c);

}  // namespace cpm::core
