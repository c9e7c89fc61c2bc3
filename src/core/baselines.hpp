// baselines.hpp — trivial reference predictors.
//
// These bracket the design space the paper explores:
//  * Persistence      == WCMA with α = 1 (the "α → 1 at N = 288" limit the
//                        paper observes in Table III);
//  * SlotMovingAverage == WCMA with α = 0 and Φ ≡ 1 (the unconditioned
//                        historical average, i.e. what EWMA/D-day averaging
//                        schemes reduce to);
//  * PreviousDay       predicts the same slot of yesterday (the weakest
//                        "24-hour cycle" exploit).
// Tests use these identities to cross-validate the WCMA implementation.
#pragma once

#include <string>

#include "core/predictor.hpp"
#include "timeseries/history.hpp"

namespace shep {

/// ê(n+1) = ẽ(n): tomorrow-looks-like-right-now.
class Persistence final : public Predictor {
 public:
  Persistence() = default;

  void Observe(double boundary_sample) override;
  double PredictNext() const override;
  bool Ready() const override { return has_sample_; }
  void Reset() override;
  std::string Name() const override { return "Persistence"; }

 private:
  double last_sample_ = 0.0;
  bool has_sample_ = false;
};

/// ê(n+1) = μ_D(n+1): plain D-day average of the predicted slot, no
/// conditioning, no persistence blend.
class SlotMovingAverage final : public Predictor {
 public:
  SlotMovingAverage(int days, int slots_per_day);

  void Observe(double boundary_sample) override;
  double PredictNext() const override;
  bool Ready() const override { return history_.full(); }
  void Reset() override;
  std::string Name() const override;

 private:
  HistoryMatrix history_;
};

/// ê(n+1) = e(yesterday, n+1).
class PreviousDay final : public Predictor {
 public:
  explicit PreviousDay(int slots_per_day);

  void Observe(double boundary_sample) override;
  double PredictNext() const override;
  bool Ready() const override { return history_.stored_days() >= 1; }
  void Reset() override;
  std::string Name() const override { return "PreviousDay"; }

 private:
  HistoryMatrix history_;  ///< yesterday only (D = 1).
};

}  // namespace shep
