#include "cpm/queueing/mva.hpp"

#include <algorithm>
#include <cmath>

#include "cpm/common/error.hpp"

namespace cpm::queueing {

namespace {

void validate_stations(const std::vector<ClosedStation>& stations) {
  require(!stations.empty(), "mva: need at least one station");
  for (const auto& s : stations)
    require(s.servers >= 1, "mva: station '", s.name, "' needs >= 1 server");
}

// Seidmann transform of one (station, demand) pair: returns the queueing
// demand; the residual delay demand is accumulated into `extra_delay`.
double seidmann_queueing_demand(const ClosedStation& st, double demand,
                                double& extra_delay) {
  if (st.is_delay || st.servers == 1) return demand;
  const double c = static_cast<double>(st.servers);
  extra_delay += demand * (c - 1.0) / c;
  return demand / c;
}

}  // namespace

MvaResult exact_mva(const std::vector<ClosedStation>& stations,
                    const std::vector<double>& demands, int population,
                    double think_time) {
  validate_stations(stations);
  require(demands.size() == stations.size(), "mva: one demand per station");
  require(population >= 0, "mva: population must be >= 0");
  require(think_time >= 0.0, "mva: think time must be >= 0");
  for (double d : demands) require(d >= 0.0, "mva: demands must be >= 0");

  const std::size_t m = stations.size();

  // Apply the Seidmann transform; the extra pure delay joins think time
  // for the recursion and is added back to the response afterwards.
  std::vector<double> dq(m);
  double extra_delay = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    dq[i] = seidmann_queueing_demand(stations[i], demands[i], extra_delay);

  MvaResult result;
  result.queue_len.assign(1, std::vector<double>(m, 0.0));
  result.throughput.assign(1, 0.0);
  result.response_time.assign(1, 0.0);
  result.station_utilization.assign(m, 0.0);
  result.converged = true;

  if (population == 0) return result;

  std::vector<double>& q = result.queue_len[0];
  double x = 0.0;
  double r_total = 0.0;
  for (int n = 1; n <= population; ++n) {
    r_total = extra_delay;
    std::vector<double> r(m);
    for (std::size_t i = 0; i < m; ++i) {
      r[i] = stations[i].is_delay ? dq[i] : dq[i] * (1.0 + q[i]);
      r_total += r[i];
    }
    x = static_cast<double>(n) / (think_time + r_total);
    for (std::size_t i = 0; i < m; ++i) q[i] = x * r[i];
    result.iterations = n;
  }

  result.throughput[0] = x;
  result.response_time[0] = r_total;
  for (std::size_t i = 0; i < m; ++i) {
    // Utilisation from the ORIGINAL demand: X D_i / c_i.
    result.station_utilization[i] =
        stations[i].is_delay
            ? 0.0
            : x * demands[i] / static_cast<double>(stations[i].servers);
  }
  return result;
}

MvaResult approximate_mva(const std::vector<ClosedStation>& stations,
                          const std::vector<ClosedClass>& classes,
                          const std::vector<std::vector<double>>& demands,
                          double tol, int max_iter) {
  validate_stations(stations);
  require(!classes.empty(), "mva: need at least one class");
  require(demands.size() == classes.size(), "mva: one demand row per class");
  const std::size_t m = stations.size();
  const std::size_t kc = classes.size();
  for (std::size_t k = 0; k < kc; ++k) {
    require(demands[k].size() == m, "mva: demand row size mismatch");
    require(classes[k].population >= 1,
            "mva: class '", classes[k].name, "' population must be >= 1");
    require(classes[k].think_time >= 0.0, "mva: negative think time");
    for (double d : demands[k]) require(d >= 0.0, "mva: demands must be >= 0");
  }

  // Seidmann transform per class (same split for all classes).
  std::vector<std::vector<double>> dq(kc, std::vector<double>(m));
  std::vector<double> extra_delay(kc, 0.0);
  for (std::size_t k = 0; k < kc; ++k)
    for (std::size_t i = 0; i < m; ++i)
      dq[k][i] = seidmann_queueing_demand(stations[i], demands[k][i],
                                          extra_delay[k]);

  // Bard-Schweitzer: initialise queue lengths uniformly.
  std::vector<std::vector<double>> q(kc, std::vector<double>(m));
  for (std::size_t k = 0; k < kc; ++k)
    for (std::size_t i = 0; i < m; ++i)
      q[k][i] = static_cast<double>(classes[k].population) /
                static_cast<double>(m);

  MvaResult result;
  result.throughput.assign(kc, 0.0);
  result.response_time.assign(kc, 0.0);

  std::vector<std::vector<double>> r(kc, std::vector<double>(m));
  for (int it = 0; it < max_iter; ++it) {
    double worst = 0.0;
    for (std::size_t k = 0; k < kc; ++k) {
      const double nk = static_cast<double>(classes[k].population);
      double r_total = extra_delay[k];
      for (std::size_t i = 0; i < m; ++i) {
        if (stations[i].is_delay) {
          r[k][i] = dq[k][i];
        } else {
          // Arrival theorem approximation: class k sees all other work
          // plus (N_k - 1)/N_k of its own queue.
          double others = 0.0;
          for (std::size_t j = 0; j < kc; ++j) others += q[j][i];
          others -= q[k][i] / nk;
          r[k][i] = dq[k][i] * (1.0 + others);
        }
        r_total += r[k][i];
      }
      const double x = nk / (classes[k].think_time + r_total);
      result.throughput[k] = x;
      result.response_time[k] = r_total;
      for (std::size_t i = 0; i < m; ++i) {
        const double updated = x * r[k][i];
        worst = std::max(worst, std::abs(updated - q[k][i]));
        q[k][i] = updated;
      }
    }
    result.iterations = it + 1;
    if (worst < tol) {
      result.converged = true;
      break;
    }
  }

  result.queue_len = q;
  result.station_utilization.assign(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    if (stations[i].is_delay) continue;
    double u = 0.0;
    for (std::size_t k = 0; k < kc; ++k)
      u += result.throughput[k] * demands[k][i];
    result.station_utilization[i] = u / static_cast<double>(stations[i].servers);
  }
  return result;
}

double AsymptoticBounds::throughput_bound(int population) const {
  const double heavy = d_max > 0.0 ? 1.0 / d_max : 1e300;
  const double light = knee_population > 0.0
                           ? static_cast<double>(population) / (d_max * knee_population)
                           : 1e300;
  return std::min(light, heavy);
}

double AsymptoticBounds::response_bound(int population, double think_time) const {
  return std::max(d_total, static_cast<double>(population) * d_max - think_time);
}

AsymptoticBounds asymptotic_bounds(const std::vector<ClosedStation>& stations,
                                   const std::vector<double>& demands,
                                   double think_time) {
  validate_stations(stations);
  require(demands.size() == stations.size(), "bounds: one demand per station");
  require(think_time >= 0.0, "bounds: think time must be >= 0");
  AsymptoticBounds b;
  double extra_delay = 0.0;
  for (std::size_t i = 0; i < stations.size(); ++i) {
    b.d_total += demands[i];
    if (stations[i].is_delay) continue;
    double ignored = 0.0;
    const double dqi = seidmann_queueing_demand(stations[i], demands[i], ignored);
    b.d_max = std::max(b.d_max, dqi);
  }
  (void)extra_delay;
  b.knee_population = b.d_max > 0.0 ? (b.d_total + think_time) / b.d_max : 0.0;
  return b;
}

}  // namespace cpm::queueing
