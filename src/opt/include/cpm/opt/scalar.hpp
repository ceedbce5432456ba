// One-dimensional threshold search.
//
// Used by the frequency optimizers to find the tightest feasible value of
// a monotone constraint.
#pragma once

#include <functional>

namespace cpm::opt {

/// Finds the largest x in [lo, hi] with pred(x) true, where pred is
/// monotone (true then false). Returns lo if pred(lo) is false is an
/// error; returns hi when pred(hi) is true. Used for "tightest feasible
/// constraint" searches.
double monotone_threshold(const std::function<bool(double)>& pred, double lo,
                          double hi, double x_tol = 1e-10);

}  // namespace cpm::opt
