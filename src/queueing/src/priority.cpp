#include "cpm/queueing/priority.hpp"

#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/queueing/erlang.hpp"

namespace cpm::queueing {

const char* discipline_name(Discipline d) {
  switch (d) {
    case Discipline::kFcfs:                  return "fcfs";
    case Discipline::kNonPreemptivePriority: return "np-priority";
    case Discipline::kPreemptiveResume:      return "p-priority";
    case Discipline::kProcessorSharing:      return "ps";
  }
  return "unknown";
}

double station_utilization(int servers, const std::vector<ClassFlow>& flows) {
  require(servers >= 1, "station_utilization: servers must be >= 1");
  double load = 0.0;
  for (const auto& f : flows) {
    require(f.rate.value() >= 0.0, "station_utilization: negative rate");
    load += f.rate.value() * f.service.mean();
  }
  return load / static_cast<double>(servers);
}

bool station_stable(int servers, const std::vector<ClassFlow>& flows) {
  return station_utilization(servers, flows) < 1.0;
}

namespace {

struct Aggregate {
  double lambda = 0.0;  // total arrival rate
  double es = 0.0;      // mixture E[S]
  double es2 = 0.0;     // mixture E[S^2]
  double rho = 0.0;     // per-server utilisation
};

// One class's rate and first two service moments: all that the
// single-server formulas read.
struct FlowMoments {
  double rate;
  double mean;
  double m2;
};

FlowMoments moments_of(const ClassFlow& f) {
  return {f.rate.value(), f.service.mean(), f.service.second_moment()};
}

// `at(k)` yields class k's FlowMoments, so the same code aggregates the
// station's own flows and the scaled Bondi-Buzen reference system.
template <typename At>
Aggregate aggregate_flows(int servers, std::size_t k_classes, const At& at) {
  Aggregate a;
  for (std::size_t k = 0; k < k_classes; ++k) {
    const FlowMoments f = at(k);
    a.lambda += f.rate;
    a.es += f.rate * f.mean;
    a.es2 += f.rate * f.m2;
  }
  a.rho = a.es / static_cast<double>(servers);
  if (a.lambda > 0.0) {
    a.es /= a.lambda;
    a.es2 /= a.lambda;
  }
  return a;
}

// P-K mean wait of a single FCFS server, identical across classes.
double fcfs_single_server_wait(const Aggregate& agg) {
  return agg.lambda > 0.0 ? agg.lambda * agg.es2 / (2.0 * (1.0 - agg.rho)) : 0.0;
}

// Single-server per-class "delay beyond own service" for each discipline,
// written to delay[0..k_classes). `agg` is aggregate_flows(1, ...) of the
// same flows. Class 0 is highest priority. Exact formulas:
//   FCFS:   P-K wait, identical across classes.
//   NP:     Cobham, W_k = R / ((1 - s_{k-1})(1 - s_k)), R = sum l_i E[S_i^2]/2.
//   PR:     T_k = E[S_k]/(1 - s_{k-1})
//               + (sum_{i<=k} l_i E[S_i^2]/2) / ((1 - s_{k-1})(1 - s_k)),
//           delay_k = T_k - E[S_k].
//   PS:     T_k = E[S_k]/(1 - rho), delay_k = T_k - E[S_k].
template <typename At>
void single_server_delays(Discipline d, std::size_t k_classes, const At& at,
                          const Aggregate& agg, std::vector<double>& delay) {
  require(agg.rho < 1.0, "analyze_station: unstable station (rho >= 1)");

  switch (d) {
    case Discipline::kFcfs: {
      const double wq = fcfs_single_server_wait(agg);
      for (std::size_t k = 0; k < k_classes; ++k) delay[k] = wq;
      break;
    }
    case Discipline::kNonPreemptivePriority: {
      double r = 0.0;  // mean residual work: sum l_i E[S_i^2] / 2 over ALL classes
      for (std::size_t k = 0; k < k_classes; ++k) r += at(k).rate * at(k).m2 / 2.0;
      double sigma_prev = 0.0;
      for (std::size_t k = 0; k < k_classes; ++k) {
        const double sigma_k = sigma_prev + at(k).rate * at(k).mean;
        require(sigma_k < 1.0, "analyze_station: priority levels saturate");
        delay[k] = r / ((1.0 - sigma_prev) * (1.0 - sigma_k));
        sigma_prev = sigma_k;
      }
      break;
    }
    case Discipline::kPreemptiveResume: {
      double r_upto = 0.0;  // residual work of classes 0..k only
      double sigma_prev = 0.0;
      for (std::size_t k = 0; k < k_classes; ++k) {
        const FlowMoments f = at(k);
        const double sigma_k = sigma_prev + f.rate * f.mean;
        require(sigma_k < 1.0, "analyze_station: priority levels saturate");
        r_upto += f.rate * f.m2 / 2.0;
        const double sojourn = f.mean / (1.0 - sigma_prev) +
                               r_upto / ((1.0 - sigma_prev) * (1.0 - sigma_k));
        delay[k] = sojourn - f.mean;
        sigma_prev = sigma_k;
      }
      break;
    }
    case Discipline::kProcessorSharing: {
      for (std::size_t k = 0; k < k_classes; ++k) {
        const double es_k = at(k).mean;
        delay[k] = es_k / (1.0 - agg.rho) - es_k;
      }
      break;
    }
  }
}

// M/G/c FCFS mean wait via Lee-Longton: (1 + SCV)/2 times the M/M/c wait at
// the same mean service time.
double mgc_fcfs_wait(int servers, const Aggregate& agg) {
  if (agg.lambda == 0.0) return 0.0;
  const double mu = 1.0 / agg.es;
  const double scv = agg.es2 / (agg.es * agg.es) - 1.0;
  return 0.5 * (1.0 + scv) * mmc_mean_wait(servers, agg.lambda, mu);
}

}  // namespace

StationMetrics analyze_station(int servers, Discipline discipline,
                               const std::vector<ClassFlow>& flows) {
  require(servers >= 1, "analyze_station: servers must be >= 1");
  require(!flows.empty(), "analyze_station: need at least one class");
  for (const auto& f : flows)
    require(f.rate.value() >= 0.0, "analyze_station: negative arrival rate");

  const std::size_t k_classes = flows.size();
  const auto own = [&flows](std::size_t k) { return moments_of(flows[k]); };
  StationMetrics m;
  m.mean_wait.resize(k_classes);
  m.mean_sojourn.resize(k_classes);
  m.wait_m2.resize(k_classes);
  m.mean_queue_len.resize(k_classes);
  m.mean_in_system.resize(k_classes);
  m.rho.resize(k_classes);
  for (std::size_t k = 0; k < k_classes; ++k)
    m.rho[k] = flows[k].rate.value() * flows[k].service.mean() / static_cast<double>(servers);
  // The station's aggregate, computed once; its rho is station_utilization.
  const Aggregate agg = aggregate_flows(servers, k_classes, own);
  m.total_utilization = agg.rho;
  require(m.total_utilization < 1.0, "analyze_station: unstable station (rho >= 1)");

  // Per-class delay beyond service, built in place in mean_wait.
  std::vector<double>& delay = m.mean_wait;
  if (servers == 1) {
    single_server_delays(discipline, k_classes, own, agg, delay);
  } else if (discipline == Discipline::kProcessorSharing) {
    // PS multi-server approximation: treat the c servers as one PS server
    // that is c times faster for the contention factor. We use the
    // simple insensitive bound T_k = E[S_k] + E[S_k] * Wq-factor with the
    // M/M/c congestion term, matching the single-class M/M/c in the
    // exponential case reasonably.
    const double wq_factor =
        agg.lambda > 0.0 ? mmc_mean_wait(servers, agg.lambda, 1.0 / agg.es) / agg.es
                         : 0.0;
    for (std::size_t k = 0; k < k_classes; ++k)
      delay[k] = flows[k].service.mean() * wq_factor;
  } else if (discipline == Discipline::kFcfs) {
    const double wq = mgc_fcfs_wait(servers, agg);
    for (auto& w : delay) w = wq;
  } else {
    // Bondi-Buzen scaling: per-class priority delay at c servers =
    // (single-server priority delay / single-server FCFS delay) x
    // (M/G/c FCFS delay). The single-server reference system divides
    // every service time by c so that it is stable whenever the real
    // station is. Its service moments are staged in mean_sojourn and
    // wait_m2, which are written for real only further down.
    std::vector<double>& ref_mean = m.mean_sojourn;
    std::vector<double>& ref_m2 = m.wait_m2;
    const double inv_c = 1.0 / static_cast<double>(servers);
    for (std::size_t k = 0; k < k_classes; ++k) {
      const Distribution& s = flows[k].service;
      const Distribution scaled = s.scaled_to_mean(s.mean() * inv_c);
      ref_mean[k] = scaled.mean();
      ref_m2[k] = scaled.second_moment();
    }
    const auto ref = [&](std::size_t k) {
      return FlowMoments{flows[k].rate.value(), ref_mean[k], ref_m2[k]};
    };
    const Aggregate ref_agg = aggregate_flows(1, k_classes, ref);
    single_server_delays(discipline, k_classes, ref, ref_agg, delay);  // prio1
    const double fcfs1 = fcfs_single_server_wait(ref_agg);
    const double wq_c = mgc_fcfs_wait(servers, agg);
    for (std::size_t k = 0; k < k_classes; ++k)
      delay[k] = fcfs1 > 0.0 ? wq_c * delay[k] / fcfs1 : 0.0;
  }

  // Second moment of the wait. Exact (Takács) for single-server FCFS:
  //   E[W^2] = 2 E[W]^2 + lambda E[S^3] / (3 (1 - rho)),
  // with the aggregate service mixture. Other disciplines / server counts
  // use the conditional-exponential approximation: the wait is zero with
  // probability 1 - q and exponential given positive, so
  //   E[W^2] = 2 E[W]^2 / q,   q = P(wait > 0)
  // with q = rho for single servers (PASTA) and the Erlang-C waiting
  // probability for multi-server stations. For M/M/1 FCFS this reproduces
  // Takács exactly; experiment E8 quantifies the residual error.
  if (servers == 1 && discipline == Discipline::kFcfs) {
    double lambda = 0.0;
    double es3 = 0.0;
    for (const auto& f : flows) {
      lambda += f.rate.value();
      es3 += f.rate.value() * f.service.third_moment();
    }
    const double rho = m.total_utilization;
    const double tail = lambda > 0.0 ? es3 / (3.0 * (1.0 - rho)) : 0.0;
    for (std::size_t k = 0; k < k_classes; ++k)
      m.wait_m2[k] = 2.0 * delay[k] * delay[k] + tail;
  } else {
    double q = m.total_utilization;
    if (servers > 1 && agg.lambda > 0.0 && agg.es > 0.0)
      q = erlang_c(servers, agg.lambda * agg.es);
    const double q_safe = std::max(q, 1e-12);
    for (std::size_t k = 0; k < k_classes; ++k)
      m.wait_m2[k] = 2.0 * delay[k] * delay[k] / q_safe;
  }

  for (std::size_t k = 0; k < k_classes; ++k) {
    m.mean_sojourn[k] = delay[k] + flows[k].service.mean();
    m.mean_queue_len[k] = flows[k].rate.value() * delay[k];
    m.mean_in_system[k] = flows[k].rate.value() * m.mean_sojourn[k];
  }
  return m;
}

}  // namespace cpm::queueing
