#include "cpm/online/timeline.hpp"

#include <algorithm>
#include <cstddef>

#include "cpm/common/error.hpp"

namespace cpm::online {

namespace {

template <typename T>
JsonArray to_json_array(const std::vector<T>& values) {
  JsonArray arr;
  arr.reserve(values.size());
  for (const T& v : values) arr.emplace_back(static_cast<double>(v));
  return arr;
}

Json window_to_json(const WindowRecord& rec) {
  JsonObject w;
  w["t"] = rec.time;
  w["measured_rate"] = Json(to_json_array(rec.measured_rate));
  w["ewma_rate"] = Json(to_json_array(rec.ewma_rate));
  w["windowed_rate"] = Json(to_json_array(rec.windowed_rate));
  w["completed"] = Json(to_json_array(rec.completed));
  w["blocked"] = Json(to_json_array(rec.blocked));
  w["within_sla"] = Json(to_json_array(rec.within_sla));
  w["sla_compliance"] = Json(to_json_array(rec.sla_compliance));
  w["mean_delay"] = Json(to_json_array(rec.mean_delay));
  w["energy_joules"] = rec.energy_joules.value();
  w["servers"] = Json(to_json_array(rec.observed_servers));

  JsonObject d;
  d["reoptimized"] = rec.reoptimized;
  d["reason"] = rec.reason;
  d["feasible"] = rec.feasible;
  d["degraded"] = rec.degraded;
  d["target_servers"] = Json(to_json_array(rec.target_servers));
  d["servers"] = Json(to_json_array(rec.actuated_servers));
  d["frequencies"] = Json(to_json_array(rec.actuated_freq));
  d["admitted"] = Json(to_json_array(rec.admitted));
  d["switching_cost_joules"] = rec.switching_cost_j.value();
  w["decision"] = Json(std::move(d));
  return Json(std::move(w));
}

}  // namespace

sim::SimConfig compile_scenario(const core::ClusterModel& model,
                                const Scenario& scenario,
                                OnlineController& controller) {
  for (const auto& shape : scenario.arrivals) {
    bool known = false;
    for (const auto& c : model.classes())
      if (c.name == shape.cls) known = true;
    require(known,
            "scenario: arrivals entry names unknown class '", shape.cls, "'");
  }

  auto cfg = model.to_controlled_sim_config(controller.initial_frequencies(),
                                            scenario.warmup, scenario.horizon,
                                            scenario.seed);
  for (auto& cls : cfg.classes) {
    for (const auto& shape : scenario.arrivals) {
      if (shape.cls != cls.name) continue;
      if (shape.kind == ArrivalShape::Kind::kConstant &&
          shape.factor == 1.0)  // conv-ok: CONV-5 — literal "unscaled" marker
        break;  // nominal rate, keep the homogeneous source
      cls.schedule = build_schedule(shape, cls.rate, scenario.horizon);
      cls.rate = units::per_second(0.0);
      break;
    }
  }
  cfg.faults = compile_faults(scenario, model);
  cfg.sla_thresholds = compile_sla_thresholds(model);
  cfg.control_period = scenario.window;
  controller.set_telemetry_dropouts(scenario.dropouts);
  cfg.manage = controller.hook();
  return cfg;
}

OnlineRunResult run_online(const core::ClusterModel& model,
                           const Scenario& scenario) {
  OnlineController controller(model, scenario.controller);
  const auto cfg = compile_scenario(model, scenario, controller);

  OnlineRunResult result;
  result.sim = sim::simulate(cfg);
  result.windows = controller.history();
  result.reoptimizations = controller.reoptimizations();
  result.switching_cost_joules = controller.total_switching_cost();

  const std::size_t classes = model.num_classes();
  JsonObject doc;
  doc["schema"] = "cpm-online/v1";
  doc["horizon"] = scenario.horizon;
  doc["warmup"] = scenario.warmup;
  doc["window"] = scenario.window;
  doc["seed"] = static_cast<double>(scenario.seed);

  JsonArray tier_names;
  for (const auto& t : model.tiers()) tier_names.emplace_back(t.name);
  doc["tiers"] = Json(std::move(tier_names));
  JsonArray class_names;
  for (const auto& c : model.classes()) class_names.emplace_back(c.name);
  doc["classes"] = Json(std::move(class_names));

  JsonArray windows;
  windows.reserve(result.windows.size());
  for (const auto& rec : result.windows)
    windows.emplace_back(window_to_json(rec));
  doc["windows"] = Json(std::move(windows));

  // Summary: whole-run aggregates from the controller trace (window
  // counters cover the full horizon) plus the simulator's counted totals.
  std::vector<double> completed(classes, 0.0);
  std::vector<double> blocked(classes, 0.0);
  std::vector<double> within(classes, 0.0);
  double energy = 0.0;
  std::size_t shed_windows = 0;
  std::size_t degraded_windows = 0;
  for (const auto& rec : result.windows) {
    for (std::size_t k = 0; k < classes; ++k) {
      completed[k] += static_cast<double>(rec.completed[k]);
      blocked[k] += static_cast<double>(rec.blocked[k]);
      within[k] += static_cast<double>(rec.within_sla[k]);
    }
    energy += rec.energy_joules.value();
    if (std::any_of(rec.admitted.begin(), rec.admitted.end(),
                    [](std::uint8_t a) { return a == 0; }))
      ++shed_windows;
    if (rec.degraded) ++degraded_windows;
  }

  JsonObject summary;
  summary["windows"] = static_cast<double>(result.windows.size());
  summary["reoptimizations"] = static_cast<double>(result.reoptimizations);
  summary["shed_windows"] = static_cast<double>(shed_windows);
  summary["degraded_windows"] = static_cast<double>(degraded_windows);
  summary["energy_joules"] = energy;
  summary["switching_cost_joules"] = result.switching_cost_joules.value();
  summary["cluster_avg_power"] = result.sim.cluster_avg_power.value();
  summary["mean_e2e_delay"] = result.sim.mean_e2e_delay.value();

  JsonArray per_class;
  for (std::size_t k = 0; k < classes; ++k) {
    JsonObject c;
    c["name"] = model.classes()[k].name;
    c["completed"] = completed[k];
    c["blocked"] = blocked[k];
    c["sla_compliance"] =
        completed[k] > 0.0 ? within[k] / completed[k] : 1.0;
    c["mean_delay"] = result.sim.classes[k].mean_e2e_delay.value();
    c["p95_delay"] = result.sim.classes[k].p95_e2e_delay.value();
    per_class.emplace_back(std::move(c));
  }
  summary["per_class"] = Json(std::move(per_class));
  doc["summary"] = Json(std::move(summary));

  result.timeline = Json(std::move(doc));
  return result;
}

}  // namespace cpm::online
