// The certifier under Monte-Carlo attack: over hundreds of generated
// models with random uncertainty boxes, no PROVED box may contain a
// concretely-violating point, every REFUTED witness must re-violate when
// evaluated by the ordinary analyzer, and degenerate boxes must both be
// fully decided and agree with cpm::lint rule for rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cpm/certify/interval_eval.hpp"
#include "cpm/check/certify_oracle.hpp"
#include "cpm/check/generator.hpp"
#include "cpm/common/rng.hpp"
#include "cpm/core/cluster_model.hpp"
#include "cpm/core/preconditions.hpp"

namespace cpm::check {
namespace {

std::string details(const Report& report) {
  std::string out;
  for (const auto& c : report.checks())
    if (!c.passed) out += c.invariant + ": " + c.detail + "\n";
  return out;
}

TEST(CertifyOracle, SoundOnTheEnterpriseModel) {
  const auto model = core::make_enterprise_model(0.7);
  Rng rng(20110516);
  const certify::BoxSpec box = random_box(model, rng);
  const Report report = check_certify_soundness(model, box, rng);
  EXPECT_TRUE(report.all_passed()) << details(report);
}

TEST(CertifyOracle, RefutedWitnessIsConcrete) {
  // Force a refutation and check the oracle validates (not just skips)
  // the witness branch.
  const auto model = core::make_enterprise_model(0.7);
  certify::BoxSpec box = certify::default_box(model);
  box.rates[0] = core::Interval{model.classes()[0].rate.value(),
                                model.classes()[0].rate.value() * 100.0};
  Rng rng(7);
  const Report report = check_certify_soundness(model, box, rng);
  EXPECT_TRUE(report.all_passed()) << details(report);
  const certify::CertifyReport cert = certify::certify_model(model, box);
  EXPECT_GT(cert.count(certify::Verdict::kRefuted), 0u);
}

TEST(CertifyOracle, SweepTwoHundredRandomModels) {
  // The acceptance gate: 200 generated models x random boxes, plus the
  // degenerate-box/lint parity invariants, all clean.
  CertifyOracleOptions options;
  options.samples = 16;
  const Report report = sweep_certify_random_models(20110516, 200, options);
  EXPECT_TRUE(report.all_passed()) << details(report);
  // merge() coalesces same-named invariants across models: the sweep must
  // surface exactly the four certifier invariants.
  EXPECT_EQ(report.checks().size(), 4u);
  bool saw_sound = false;
  bool saw_parity = false;
  for (const auto& c : report.checks()) {
    if (c.invariant == "certify-proved-sound") saw_sound = true;
    if (c.invariant == "certify-degenerate-matches-lint") saw_parity = true;
  }
  EXPECT_TRUE(saw_sound);
  EXPECT_TRUE(saw_parity);
}

TEST(CertifyOracle, PointBoxEnclosesTheAnalyzer) {
  // The degenerate box at the nominal point: each enclosure must contain
  // the concrete value the certifier's refutation pass computes there.
  for (const std::uint64_t seed : {1, 2, 3}) {
    ModelGenerator generator(seed);
    for (int i = 0; i < 300; ++i) {
      const core::ClusterModel model = generator.next();
      const std::vector<double> f = model.max_frequencies();
      const core::Evaluation ev = model.evaluate(f);
      ASSERT_TRUE(ev.stable);
      const certify::IntervalEvaluation box =
          certify::evaluate_box(model, certify::default_box(model));
      const std::string where =
          "seed " + std::to_string(seed) + " model " + std::to_string(i);
      const std::vector<double> rho = core::tier_utilizations(model, f);
      for (std::size_t s = 0; s < model.num_tiers(); ++s)
        EXPECT_TRUE(box.rho[s].contains(rho[s])) << where << " tier " << s;
      for (std::size_t k = 0; k < model.num_classes(); ++k) {
        EXPECT_TRUE(box.delay_floor[k].contains(
            core::class_delay_floor(model, k, f).value()))
            << where << " class " << k;
        EXPECT_TRUE(box.e2e_delay[k].contains(ev.net.e2e_delay[k].value()))
            << where << " class " << k;
      }
      EXPECT_TRUE(box.cluster_power.contains(model.power_at(f).value()))
          << where;
    }
  }
}

TEST(CertifyOracle, SweepIsDeterministic) {
  CertifyOracleOptions options;
  options.samples = 4;
  const Report a = sweep_certify_random_models(42, 10, options);
  const Report b = sweep_certify_random_models(42, 10, options);
  ASSERT_EQ(a.checks().size(), b.checks().size());
  for (std::size_t i = 0; i < a.checks().size(); ++i) {
    EXPECT_EQ(a.checks()[i].passed, b.checks()[i].passed);
    EXPECT_EQ(a.checks()[i].detail, b.checks()[i].detail);
  }
}

}  // namespace
}  // namespace cpm::check
