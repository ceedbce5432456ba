#include "cpm/core/preconditions.hpp"

#include "cpm/common/error.hpp"
#include "cpm/common/table.hpp"

namespace cpm::core {

std::vector<double> tier_base_loads(const ClusterModel& model) {
  const auto& tiers = model.tiers();
  std::vector<double> load(tiers.size(), 0.0);
  for (const auto& c : model.classes())
    for (const auto& d : c.route) {
      const auto i = static_cast<std::size_t>(d.tier);
      load[i] += c.rate.value() * d.base_service.mean() /
                 static_cast<double>(tiers[i].servers);
    }
  return load;
}

std::vector<double> tier_utilizations(const ClusterModel& model,
                                      const std::vector<double>& frequencies) {
  const auto& tiers = model.tiers();
  require(frequencies.size() == tiers.size(),
          "tier_utilizations: one frequency per tier required");
  std::vector<double> offered(tiers.size(), 0.0);
  for (const auto& c : model.classes())
    for (const auto& d : c.route) {
      const auto i = static_cast<std::size_t>(d.tier);
      offered[i] += c.rate.value() * d.base_service.mean() /
                    tiers[i].power.speedup(units::hertz(frequencies[i]));
    }
  for (std::size_t i = 0; i < tiers.size(); ++i)
    offered[i] /= static_cast<double>(tiers[i].servers);
  return offered;
}

StabilityFinding probe_stability(const ClusterModel& model,
                                 const std::vector<double>& frequencies) {
  const std::vector<double> rho = tier_utilizations(model, frequencies);
  for (std::size_t i = 0; i < rho.size(); ++i)
    if (rho[i] >= 1.0) return StabilityFinding{false, i, rho[i]};
  return StabilityFinding{};
}

std::string overload_description(const ClusterModel& model,
                                 const StabilityFinding& finding) {
  return "tier '" + model.tiers().at(finding.tier).name +
         "' has no steady state (rho = " + format_double(finding.rho, 3) +
         " >= 1)";
}

void require_stable(const ClusterModel& model,
                    const std::vector<double>& frequencies,
                    const std::string& context) {
  const StabilityFinding finding = probe_stability(model, frequencies);
  if (!finding.stable)
    throw Error(context + ": [CPM-L001] " +
                overload_description(model, finding));
  // The network analyzer scales demands before summing; right at rho = 1
  // its rounding can disagree with the per-tier sum above.
  require(model.stable_at(frequencies),
          context, ": [CPM-L001] operating point is at the saturation boundary");
}

units::Seconds class_delay_floor(const ClusterModel& model, std::size_t k,
                                 const std::vector<double>& frequencies) {
  require(k < model.num_classes(), "class_delay_floor: class index out of range");
  require(frequencies.size() == model.num_tiers(),
          "class_delay_floor: one frequency per tier required");
  double floor = 0.0;
  for (const auto& d : model.classes()[k].route) {
    const auto i = static_cast<std::size_t>(d.tier);
    floor += d.base_service.mean() /
             model.tiers()[i].power.speedup(units::hertz(frequencies[i]));
  }
  return units::seconds(floor);
}

bool sla_mean_target_feasible(units::Seconds target, units::Seconds floor) {
  return target > floor;
}

std::string sla_floor_description(const ClusterModel& model, std::size_t k,
                                  units::Seconds target, units::Seconds floor) {
  return "class '" + model.classes().at(k).name + "' mean SLA " +
         format_double(target.value(), 4) +
         " s is at or below its no-queueing service floor " +
         format_double(floor.value(), 4) + " s";
}

std::string sla_floor_hint(units::Seconds floor) {
  return "raise the mean-delay target above " + format_double(floor.value(), 4) +
         " s or cut the route's service demands";
}

}  // namespace cpm::core
