// Golden-value pin for the analytic stack, companion to
// test_golden_hotpath.cpp (which pins the simulator). It locks the numbers
// that every optimizer, certify run and sweep point is built from: station
// decomposition (analyze_network), the gamma-fit E2E percentile and its
// Newton solve (gamma_quantile), and the energy accounting
// (compute_energy), so a speed-up of those functions — fewer allocations,
// hoisted constants, shared subexpressions — provably changes no result
// bit for bit. The network covers all four disciplines at c = 1 and c > 1
// (Cobham, preemptive resume, PS, Lee-Longton, Bondi-Buzen and M/M/c PS
// branches), a class that visits one station twice (the merged-flow path)
// and exponential, Erlang, hyperexponential, lognormal and deterministic
// services. The hex-float literals were produced by the implementation
// before those speed-ups; x86-64 GCC 12 Release is the reference
// environment (no -ffast-math, no -march=native).
#include <gtest/gtest.h>

#include <vector>

#include "cpm/common/distribution.hpp"
#include "cpm/common/math.hpp"
#include "cpm/power/energy.hpp"
#include "cpm/queueing/network.hpp"

namespace cpm {
namespace {

// Eight stations: every discipline once at c = 1 (stations 0-3) and once at
// c > 1 (stations 4-7, the Lee-Longton, Bondi-Buzen and M/M/c branches).
// Gold visits station 1 twice and bronze visits station 3 twice, so both
// take the merged-flow (from_mean_scv) path there.
std::vector<queueing::NetworkStation> golden_stations() {
  using queueing::Discipline;
  return {{"fcfs1", 1, Discipline::kFcfs},
          {"np1", 1, Discipline::kNonPreemptivePriority},
          {"pr1", 1, Discipline::kPreemptiveResume},
          {"ps1", 1, Discipline::kProcessorSharing},
          {"fcfs2", 2, Discipline::kFcfs},
          {"np3", 3, Discipline::kNonPreemptivePriority},
          {"pr2", 2, Discipline::kPreemptiveResume},
          {"ps4", 4, Discipline::kProcessorSharing}};
}

std::vector<queueing::CustomerClass> golden_classes() {
  using queueing::Visit;
  queueing::CustomerClass gold{"gold", units::per_second(0.8), {}};
  gold.route = {Visit{0, Distribution::exponential(0.2)},
                Visit{1, Distribution::erlang(3, 0.15)},
                Visit{4, Distribution::hyper_exp2(0.9, 4.0)},
                Visit{5, Distribution::lognormal(1.2, 1.5)},
                Visit{1, Distribution::deterministic(0.1)},
                Visit{7, Distribution::exponential(1.0)}};
  queueing::CustomerClass silver{"silver", units::per_second(1.2), {}};
  silver.route = {Visit{2, Distribution::lognormal(0.1, 0.5)},
                  Visit{1, Distribution::exponential(0.15)},
                  Visit{3, Distribution::exponential(0.2)},
                  Visit{5, Distribution::exponential(0.8)},
                  Visit{6, Distribution::erlang(2, 0.4)},
                  Visit{7, Distribution::deterministic(0.5)},
                  Visit{0, Distribution::hyper_exp2(0.1, 2.0)}};
  queueing::CustomerClass bronze{"bronze", units::per_second(0.6), {}};
  bronze.route = {Visit{0, Distribution::deterministic(0.15)},
                  Visit{2, Distribution::hyper_exp2(0.3, 3.0)},
                  Visit{3, Distribution::erlang(4, 0.3)},
                  Visit{4, Distribution::exponential(0.5)},
                  Visit{6, Distribution::lognormal(0.6, 2.0)},
                  Visit{7, Distribution::exponential(0.8)},
                  Visit{3, Distribution::exponential(0.2)}};
  return {gold, silver, bronze};
}

// One DVFS operating point per station, inside the typical server's range.
std::vector<power::TierPower> golden_tiers() {
  const double freq[] = {1.0, 0.8, 0.9, 0.7, 0.6, 1.0, 0.75, 0.85};
  const auto stations = golden_stations();
  std::vector<power::TierPower> tiers;
  for (std::size_t s = 0; s < stations.size(); ++s)
    tiers.push_back({power::ServerPower::typical_2011_server(),
                     units::hertz(freq[s]), stations[s].servers});
  return tiers;
}

TEST(GoldenAnalytic, AnalyzeNetworkIsBitForBitStable) {
  const auto net = queueing::analyze_network(golden_stations(), golden_classes());
  EXPECT_EQ(net.station_utilization[0], 0x1.7ae147ae147aep-2);
  EXPECT_EQ(net.station_utilization[1], 0x1.851eb851eb852p-2);
  EXPECT_EQ(net.station_utilization[2], 0x1.3333333333333p-2);
  EXPECT_EQ(net.station_utilization[3], 0x1.147ae147ae148p-1);
  EXPECT_EQ(net.station_utilization[4], 0x1.051eb851eb852p-1);
  EXPECT_EQ(net.station_utilization[5], 0x1.47ae147ae147bp-1);
  EXPECT_EQ(net.station_utilization[6], 0x1.ae147ae147ae1p-2);
  EXPECT_EQ(net.station_utilization[7], 0x1.e147ae147ae14p-2);
  EXPECT_EQ(net.e2e_delay[0].value(), 0x1.29fdba00f6c7cp+2);
  EXPECT_EQ(net.e2e_delay_variance[0].value(), 0x1.122a3bb55c33p+3);
  EXPECT_EQ(net.e2e_delay[1].value(), 0x1.afaa6f79b303ap+1);
  EXPECT_EQ(net.e2e_delay_variance[1].value(), 0x1.52304fabc0666p+1);
  EXPECT_EQ(net.e2e_delay[2].value(), 0x1.28b392f5b945fp+2);
  EXPECT_EQ(net.e2e_delay_variance[2].value(), 0x1.3976359118696p+2);
  EXPECT_EQ(net.mean_e2e_delay.value(), 0x1.03c639cb3d898p+2);
}

TEST(GoldenAnalytic, PercentileE2eDelayIsBitForBitStable) {
  const auto net = queueing::analyze_network(golden_stations(), golden_classes());
  EXPECT_EQ(queueing::percentile_e2e_delay(net, 0, 0.5).value(), 0x1.03c9f2db85d5bp+2);
  EXPECT_EQ(queueing::percentile_e2e_delay(net, 0, 0.95).value(), 0x1.48b28474f93fep+3);
  EXPECT_EQ(queueing::percentile_e2e_delay(net, 0, 0.99).value(), 0x1.bf4f51f04bdc2p+3);
  EXPECT_EQ(queueing::percentile_e2e_delay(net, 1, 0.5).value(), 0x1.8ebcfa8b836a8p+1);
  EXPECT_EQ(queueing::percentile_e2e_delay(net, 1, 0.95).value(), 0x1.9a681a9c030e3p+2);
  EXPECT_EQ(queueing::percentile_e2e_delay(net, 1, 0.99).value(), 0x1.07eb1b0f8b8e2p+3);
  EXPECT_EQ(queueing::percentile_e2e_delay(net, 2, 0.5).value(), 0x1.127e3630ff8c4p+2);
  EXPECT_EQ(queueing::percentile_e2e_delay(net, 2, 0.95).value(), 0x1.18b0f9825a497p+3);
  EXPECT_EQ(queueing::percentile_e2e_delay(net, 2, 0.99).value(), 0x1.6853bec2e1a1fp+3);
}

TEST(GoldenAnalytic, GammaQuantileIsBitForBitStable) {
  // Shapes below and above 1 and p in both tails: the Newton solve takes
  // both the series and the continued-fraction branch of gamma_p.
  EXPECT_EQ(gamma_quantile(0.01, 0.3, 1.5), 0x1.e3e65884679aap-23);
  EXPECT_EQ(gamma_quantile(0.5, 0.3, 1.5), 0x1.c15154b4d4526p-4);
  EXPECT_EQ(gamma_quantile(0.95, 0.3, 1.5), 0x1.077dbe946f804p+1);
  EXPECT_EQ(gamma_quantile(0.99, 0.3, 1.5), 0x1.fac43d27c920cp+1);
  EXPECT_EQ(gamma_quantile(0.01, 1, 1.5), 0x1.edfe7dda7bf1p-7);
  EXPECT_EQ(gamma_quantile(0.5, 1, 1.5), 0x1.0a2b23f3bab72p+0);
  EXPECT_EQ(gamma_quantile(0.95, 1, 1.5), 0x1.1f971dc96eaaap+2);
  EXPECT_EQ(gamma_quantile(0.99, 1, 1.5), 0x1.ba18a998fff9cp+2);
  EXPECT_EQ(gamma_quantile(0.01, 7.5, 1.5), 0x1.f6047a69b798ap+1);
  EXPECT_EQ(gamma_quantile(0.5, 7.5, 1.5), 0x1.5821f3ed03efep+3);
  EXPECT_EQ(gamma_quantile(0.95, 7.5, 1.5), 0x1.2bf3113b2dc3bp+4);
  EXPECT_EQ(gamma_quantile(0.99, 7.5, 1.5), 0x1.6eef5a31b0617p+4);
  EXPECT_EQ(gamma_quantile(0.01, 60, 1.5), 0x1.04c5142a9e6b3p+6);
  EXPECT_EQ(gamma_quantile(0.5, 60, 1.5), 0x1.6600823e1eebp+6);
  EXPECT_EQ(gamma_quantile(0.95, 60, 1.5), 0x1.b7b3bb0a0b99ep+6);
  EXPECT_EQ(gamma_quantile(0.99, 60, 1.5), 0x1.dcd9ba377c1f2p+6);
}

TEST(GoldenAnalytic, ComputeEnergyIsBitForBitStable) {
  const auto classes = golden_classes();
  const auto net = queueing::analyze_network(golden_stations(), classes);
  {
    const auto e = power::compute_energy(golden_tiers(), classes, net,
                                         power::IdleAttribution::kProportionalToLoad);
    EXPECT_EQ(e.cluster_avg_power.value(), 0x1.52f8bc6a7ef9ep+11);
    EXPECT_EQ(e.station_avg_power[0].value(), 0x1.76p+7);
    EXPECT_EQ(e.station_avg_power[1].value(), 0x1.52e978d4fdf3cp+7);
    EXPECT_EQ(e.station_avg_power[2].value(), 0x1.57bd70a3d70a4p+7);
    EXPECT_EQ(e.station_avg_power[3].value(), 0x1.510b439581062p+7);
    EXPECT_EQ(e.station_avg_power[4].value(), 0x1.42083126e978dp+8);
    EXPECT_EQ(e.station_avg_power[5].value(), 0x1.41p+9);
    EXPECT_EQ(e.station_avg_power[6].value(), 0x1.4f7p+8);
    EXPECT_EQ(e.station_avg_power[7].value(), 0x1.65ba4dd2f1aap+9);
    EXPECT_EQ(e.per_request_energy[0].value(), 0x1.3fa17271c2d18p+10);
    EXPECT_EQ(e.per_request_energy[1].value(), 0x1.ab53224542a72p+9);
    EXPECT_EQ(e.per_request_energy[2].value(), 0x1.14680e860b826p+10);
    EXPECT_EQ(e.mean_per_request_energy.value(), 0x1.04bf55dbc422bp+10);
  }
  {
    const auto e = power::compute_energy(golden_tiers(), classes, net,
                                         power::IdleAttribution::kMarginalOnly);
    EXPECT_EQ(e.cluster_avg_power.value(), 0x1.52f8bc6a7ef9ep+11);
    EXPECT_EQ(e.station_avg_power[0].value(), 0x1.76p+7);
    EXPECT_EQ(e.station_avg_power[1].value(), 0x1.52e978d4fdf3cp+7);
    EXPECT_EQ(e.station_avg_power[2].value(), 0x1.57bd70a3d70a4p+7);
    EXPECT_EQ(e.station_avg_power[3].value(), 0x1.510b439581062p+7);
    EXPECT_EQ(e.station_avg_power[4].value(), 0x1.42083126e978dp+8);
    EXPECT_EQ(e.station_avg_power[5].value(), 0x1.41p+9);
    EXPECT_EQ(e.station_avg_power[6].value(), 0x1.4f7p+8);
    EXPECT_EQ(e.station_avg_power[7].value(), 0x1.65ba4dd2f1aap+9);
    EXPECT_EQ(e.per_request_energy[0].value(), 0x1.d34e147ae147bp+7);
    EXPECT_EQ(e.per_request_energy[1].value(), 0x1.3ed28f5c28f5cp+7);
    EXPECT_EQ(e.per_request_energy[2].value(), 0x1.1686666666666p+7);
    EXPECT_EQ(e.mean_per_request_energy.value(), 0x1.6335c28f5c28fp+7);
  }
}

}  // namespace
}  // namespace cpm
