// wcma.hpp — the solar energy predictor evaluated by the paper (Eqs. 1–5).
//
// The algorithm of Recas et al. [5] — a Weather-Conditioned Moving Average —
// predicts the power at the next slot boundary as a blend of
//
//     ê(n+1) = α·ẽ(n)  +  (1−α)·μ_D(n+1)·Φ_K
//              ^persistence   ^conditioned-average
//
// where μ_D(n+1) is the average of the same slot over the last D days
// (Eq. 2) and Φ_K conditions that average on how bright/cloudy TODAY is
// relative to those days: a weighted average (weights θ(k)=k/K rising to 1
// at the most recent slot, Eq. 5) of the ratios η(k) between today's
// measured slots and their historical averages (Eqs. 3–4).
//
// Parameters (paper Sec. II):
//   α ∈ [0,1]  — weighting between the two terms,
//   D ≥ 1      — past days kept in the history matrix (memory cost D·N),
//   K ≥ 1      — today's slots entering the conditioning factor,
//   N          — slots per day (the prediction horizon is T = 86400/N s).
//
// Numerical edge cases are defined explicitly here (the paper leaves them
// implicit; all are outside the region of interest of the evaluation):
//   * η(k) with μ_D ≈ 0 (night): the ratio is taken as 1 (neutral).
//   * Before the history matrix holds any day, the conditioned-average term
//     falls back to the current sample (pure persistence).
//   * Fewer than K slots observed so far: Φ uses the available ones.
#pragma once

#include <string>

#include "core/predictor.hpp"
#include "timeseries/history.hpp"

namespace shep {

/// Tuning parameters of the WCMA predictor.
struct WcmaParams {
  double alpha = 0.7;  ///< persistence weight α ∈ [0,1].
  int days = 20;       ///< D: history depth in days (>= 1).
  int slots_k = 3;     ///< K: conditioning window in slots (>= 1).

  /// Throws std::invalid_argument when out of range.
  void Validate() const;
};

/// Conditioning-weight profiles.  The paper uses the ramp θ(k)=k/K (Eq. 5);
/// the uniform variant exists for the ablation called out in DESIGN.md §5.
enum class WcmaWeighting {
  kRamp,     ///< θ(k) = k/K (paper).
  kUniform,  ///< θ(k) = 1.
};

/// Streaming implementation of the predictor.
class Wcma final : public Predictor {
 public:
  /// \param slots_per_day  N of the deployment (must match the series the
  ///                       predictor is run against).
  Wcma(const WcmaParams& params, int slots_per_day,
       WcmaWeighting weighting = WcmaWeighting::kRamp);

  void Observe(double boundary_sample) override;
  double PredictNext() const override;
  bool Ready() const override;
  void Reset() override;
  std::string Name() const override;

  const WcmaParams& params() const { return params_; }

  /// The conditioning factor Φ_K that the next PredictNext() will use;
  /// exposed for tests and for the dynamic-parameter study.
  double CurrentPhi() const;

  /// μ_D(j) currently stored for slot-of-day j (requires some history).
  double CurrentMu(std::size_t slot) const;

 private:
  /// One elapsed slot of the current day, as used by Φ: the measured sample
  /// and the historical average that was current when it was measured.
  struct RecentSlot {
    double sample;
    double mu;
  };

  WcmaParams params_;
  int slots_per_day_;
  WcmaWeighting weighting_;

  HistoryMatrix history_;
  std::vector<double> current_day_;  ///< boundary samples observed today.
  std::size_t next_slot_ = 0;        ///< slot-of-day the next Observe fills.
  double last_sample_ = 0.0;
  bool has_sample_ = false;
  RecentWindow<RecentSlot> recent_;  ///< last <= K elapsed slots.
};

}  // namespace shep
