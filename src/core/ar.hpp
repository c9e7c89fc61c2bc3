// ar.hpp — autoregressive predictor with online RLS fitting.
//
// The comparison literature the paper cites (Bergonzini et al. [7])
// evaluates classical time-series predictors alongside WCMA.  This module
// provides the strongest such baseline: an AR(p) model fitted online by
// recursive least squares — but applied the only way AR makes sense on
// solar data, to the DE-SEASONALISED series
//
//     r(n) = ẽ(n) / μ_D(slot(n))
//
// i.e. the same brightness ratio WCMA's Φ is built from.  The AR model
// learns the short-term dynamics of the weather process; the diurnal
// envelope is restored by multiplying the predicted ratio with μ_D(n+1).
// Fitting raw power with AR fails trivially (the diurnal ramp dominates),
// which tests/test_ar.cpp demonstrates as a negative control.
#pragma once

#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "timeseries/history.hpp"

namespace shep {

/// Tuning of the AR predictor.
struct ArParams {
  int order = 3;          ///< p: number of ratio lags.
  int days = 10;          ///< D: history depth for μ_D.
  double lambda = 0.995;  ///< RLS forgetting factor in (0, 1].
  double delta = 100.0;   ///< initial covariance scale (P = δI).

  void Validate() const;
};

/// Streaming AR(p)-on-ratios predictor, RLS-fitted.
class ArPredictor final : public Predictor {
 public:
  ArPredictor(const ArParams& params, int slots_per_day);

  void Observe(double boundary_sample) override;
  double PredictNext() const override;
  bool Ready() const override;
  void Reset() override;
  std::string Name() const override;

  const ArParams& params() const { return params_; }

  /// Current model coefficients: [bias, lag1 (most recent), ..., lagP].
  const std::vector<double>& coefficients() const { return theta_; }

  /// RLS covariance P, (order+1)^2 row-major.
  const std::vector<double>& covariance() const { return cov_; }

  /// Number of RLS updates performed so far.
  std::uint64_t updates() const { return updates_; }

 private:
  /// Feature i of the regression [1, r(n), r(n-1), ...]: the bias, then
  /// the lagged ratios newest first, neutral 1 where history is missing.
  double Feature(std::size_t i) const;
  /// One RLS step on the current features toward `target`.
  void RlsUpdate(double target);
  /// Fills px_ = P x and returns the RLS denominator λ + xᵀ P x.
  double RlsDenominator();
  /// P = δI, the prior every fit starts from.
  void ResetCovariance();

  ArParams params_;
  HistoryMatrix history_;
  RecentWindow<double> ratio_lags_;  ///< newest at back.
  std::vector<double> theta_;      ///< order+1 coefficients (bias first).
  std::vector<double> cov_;        ///< P matrix, (order+1)^2 row-major.
  /// RlsUpdate scratch, order+1 each: features x, P x, and the gain k.
  std::vector<double> x_;
  std::vector<double> px_;
  std::vector<double> gain_;
  std::uint64_t updates_ = 0;
};

}  // namespace shep
