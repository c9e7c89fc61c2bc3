#include "metrics/error.hpp"

#include <cmath>

#include "common/check.hpp"

namespace shep {

double Reference(const PredictionPoint& point, ErrorTarget target) {
  return target == ErrorTarget::kSlotMean ? point.mean : point.boundary;
}

ErrorStats EvaluateErrors(std::span<const PredictionPoint> points,
                          ErrorTarget target, double peak,
                          const RoiFilter& filter) {
  SHEP_REQUIRE(filter.threshold_fraction >= 0.0 &&
                   filter.threshold_fraction <= 1.0,
               "ROI threshold must be a fraction in [0,1]");
  ErrorStats stats;
  double sum_ape = 0.0;
  double sum_abs = 0.0;
  double sum_sq = 0.0;
  double sum_err = 0.0;
  for (const auto& p : points) {
    const double ref = Reference(p, target);
    if (!filter.Includes(p.day, ref, peak)) continue;
    // ref >= threshold*peak > 0 whenever threshold > 0; guard anyway for
    // threshold == 0 configurations.
    if (ref <= 0.0) continue;
    const double err = ref - p.predicted;
    sum_ape += std::fabs(err) / ref;
    sum_abs += std::fabs(err);
    sum_sq += err * err;
    sum_err += err;
    ++stats.count;
  }
  if (stats.count == 0) return stats;
  const double n = static_cast<double>(stats.count);
  stats.mape = sum_ape / n;
  stats.mae = sum_abs / n;
  stats.rmse = std::sqrt(sum_sq / n);
  stats.mbe = sum_err / n;
  return stats;
}

}  // namespace shep
