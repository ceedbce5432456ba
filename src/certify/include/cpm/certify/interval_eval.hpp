// Interval transfer functions for the analytic pipeline.
//
// evaluate_box() re-runs the formulas of cpm::queueing (station
// decomposition, Pollaczek-Khinchine, Cobham, Lee-Longton, Bondi-Buzen)
// and cpm::power (DVFS power curves) in closed-interval arithmetic over a
// parameter box: the result intervals CONTAIN the concrete analyzer's
// value at every stable parameter choice inside the box. Parameter
// regions where some tier saturates surface as +infinity upper bounds
// (never as a finite "proved" bound), so the certifier can only ever
// prove a property that truly holds everywhere. On a degenerate box the
// delays are the analyzer's own values at that point.
//
// Division guards restrict denominators of the form (1 - rho) to their
// non-negative part: the discarded negative part corresponds to unstable
// parameter choices, which the concrete analyzer refuses to evaluate and
// which the corner-refutation pass of cpm::certify handles instead.
#pragma once

#include <vector>

#include "cpm/certify/box.hpp"
#include "cpm/core/cluster_model.hpp"
#include "cpm/core/interval.hpp"

namespace cpm::certify {

/// Interval enclosures of the per-box analytic metrics.
struct IntervalEvaluation {
  /// Per tier: utilisation rho_i over the box.
  std::vector<core::Interval> rho;
  /// Per class: no-queueing E2E service floor over the box.
  std::vector<core::Interval> delay_floor;
  /// Per class: mean E2E delay. The upper endpoint is +infinity when the
  /// box touches saturation.
  std::vector<core::Interval> e2e_delay;
  /// Cluster average power; upper endpoint +infinity when any tier's
  /// utilisation interval reaches 1 (matching ClusterModel::power_at,
  /// which returns +infinity for unstable operating points).
  core::Interval cluster_power;
};

/// Evaluates the model's analytic pipeline over the parameter box.
IntervalEvaluation evaluate_box(const core::ClusterModel& model,
                                const BoxSpec& box);

}  // namespace cpm::certify
