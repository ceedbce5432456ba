#include "cpm/sim/batch_analysis.hpp"

#include <cmath>

#include "cpm/common/error.hpp"

namespace cpm::sim {

double lag1_autocorrelation(const std::vector<double>& series) {
  if (series.size() < 3) return 0.0;
  RunningStats rs;
  for (double x : series) rs.add(x);
  const double mean = rs.mean();
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double d = series[i] - mean;
    den += d * d;
    if (i + 1 < series.size()) num += d * (series[i + 1] - mean);
  }
  return den > 0.0 ? num / den : 0.0;
}

BatchAnalysisResult batch_means_analysis(const SimConfig& config,
                                         const BatchAnalysisOptions& options) {
  require(options.batch_size >= 2, "batch_means_analysis: batch size >= 2");
  require(options.confidence > 0.0 && options.confidence < 1.0,
          "batch_means_analysis: confidence in (0,1)");

  SimConfig cfg = config;
  cfg.record_completions = true;
  BatchAnalysisResult result;
  result.run = simulate(cfg);

  const std::size_t n_classes = config.classes.size();
  std::vector<BatchMeans> batches(n_classes, BatchMeans(options.batch_size));
  for (const auto& c : result.run.completions)
    batches[c.cls].add(c.e2e_delay.value());
  result.run.completions.clear();  // series consumed; free the memory

  result.classes.resize(n_classes);
  for (std::size_t k = 0; k < n_classes; ++k) {
    auto& out = result.classes[k];
    const auto& means = batches[k].batch_means();
    require(means.size() >= 2,
            "batch_means_analysis: class '", config.classes[k].name,
            "' completed fewer than 2 batches; lengthen the run or "
            "shrink batch_size");
    out.batches = means.size();
    out.mean_e2e_delay = confidence_interval(means, options.confidence);
    out.lag1_autocorrelation = lag1_autocorrelation(means);
    out.batches_look_independent =
        std::abs(out.lag1_autocorrelation) <= options.autocorrelation_warn;
  }
  return result;
}

}  // namespace cpm::sim
