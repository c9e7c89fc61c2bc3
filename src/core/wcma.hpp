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
/// the uniform variant exists for bench/repro_ablation (README "Synthetic
/// substrate and known deviations").
enum class WcmaWeighting {
  kRamp,     ///< θ(k) = k/K (paper).
  kUniform,  ///< θ(k) = 1.
};

/// One elapsed slot of the current day, as Φ uses it: the measured sample
/// and the μ_D that was current when it was measured.
struct WcmaSlot {
  double sample;
  double mu;
};

/// WCMA's observation window: the day history E_{D×N} with its cursor, and
/// the newest `window_slots` elapsed slots as (sample, μ_D when observed).
/// Wcma, AdaptiveWcma and VmWcmaPredictor each hold one.
class WcmaWindow {
 public:
  /// Requires D >= 1, N >= 2 and 1 <= window_slots < N.  D and N are
  /// checked before the matrix is sized, window_slots before the window is.
  WcmaWindow(int days, int slots_per_day, int window_slots);

  /// Records the sample with the μ_D its slot has *as seen now*, before
  /// today enters the matrix (so the window wraps across the day boundary
  /// by itself), then steps the history cursor.  With no history yet the
  /// sample stands in for μ, which makes its η neutral.
  void Observe(double sample) {
    double mu = sample;
    if (history_.stored_days() > 0) mu = history_.Mu(history_.next_slot());
    recent_.Push(WcmaSlot{sample, mu});
    history_.Observe(sample);
  }

  /// Φ_K over the newest min(k, size) elapsed slots (Eqs. 3–5); 1 before
  /// any slot has elapsed.
  double Phi(std::size_t k, WcmaWeighting weighting) const;

  const HistoryMatrix& history() const { return history_; }

  /// The elapsed slots, oldest first.
  const RecentWindow<WcmaSlot>& recent() const { return recent_; }

  void Clear() {
    history_.Clear();
    recent_.Clear();
  }

 private:
  HistoryMatrix history_;
  RecentWindow<WcmaSlot> recent_;
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
  WcmaParams params_;
  WcmaWeighting weighting_;
  WcmaWindow window_;  ///< D days and the last <= K elapsed slots.
};

}  // namespace shep
