// adaptive.hpp — a realizable dynamic (α, K) selector.
//
// The paper's Sec. IV-C bounds the gains of per-prediction parameter
// adaptation with a clairvoyant oracle and concludes that "it is promising
// to develop dynamic parameters selection algorithms".  This class is such
// an algorithm — the extension the paper motivates but does not build:
//
//   * maintain ONE shared WCMA state (history matrix, recent-slot window),
//   * at every slot evaluate Eq. 1 for a small candidate bank of (α, K)
//     pairs (cheap: the Φ_K values for all K come from one pass over the
//     shared window, and α only blends two precomputed terms),
//   * score each candidate with an exponentially discounted absolute
//     percentage error against the TRAPEZOIDAL slot-mean proxy
//     (e(n)+e(n+1))/2 — not against the raw boundary sample.  This matters:
//     the deployment objective is the paper's MAPE (slot mean), and
//     Sec. III/Table II show that optimizing against boundary samples
//     drags α toward 0; the trapezoid is the best causal slot-mean
//     estimate two boundary samples can give,
//   * predict with the currently best-scoring candidate.
//
// This is "follow the discounted leader" over the paper's own parameter
// grid.  It is fully causal — it uses nothing the deployed node does not
// have — so its accuracy must land between the best static configuration
// and the clairvoyant bound of sweep/dynamic.hpp; tests and
// bench/ext_dynamic assert exactly that sandwich.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "core/wcma.hpp"

namespace shep {

/// Configuration of the adaptive selector.
struct AdaptiveWcmaParams {
  /// Candidate α values (each in [0,1]).  Defaults to the paper's 0.1 grid
  /// interior.
  std::vector<double> alphas{0.1, 0.3, 0.5, 0.7, 0.9};
  /// Candidate K values (each >= 1, < N).
  std::vector<int> ks{1, 2, 4, 6};
  /// History depth D shared by all candidates.
  int days = 10;
  /// Per-slot discount of past candidate losses; 0.97 gives a ~33-slot
  /// (two-thirds-of-a-day at N=48) memory — long enough to rank candidates
  /// stably, short enough to follow multi-day weather regime changes.
  double discount = 0.97;

  void Validate() const;

  std::size_t candidates() const { return alphas.size() * ks.size(); }
};

/// Streaming WCMA with online (α, K) selection.
class AdaptiveWcma final : public Predictor {
 public:
  AdaptiveWcma(const AdaptiveWcmaParams& params, int slots_per_day);

  void Observe(double boundary_sample) override;
  double PredictNext() const override;
  bool Ready() const override;
  void Reset() override;
  std::string Name() const override;

  const AdaptiveWcmaParams& params() const { return params_; }

  /// Index of the currently selected candidate (row-major α × K).
  std::size_t selected_candidate() const { return selected_; }

  /// The (α, K) of the currently selected candidate.
  double selected_alpha() const;
  int selected_k() const;

  /// How many slots each candidate has been selected for; diagnostic for
  /// tests and the extension bench ("is the selector actually adapting?").
  const std::vector<std::uint64_t>& selection_counts() const {
    return selection_counts_;
  }

 private:
  /// Candidate predictions for the upcoming slot, refreshed on Observe.
  void RefreshCandidatePredictions();

  AdaptiveWcmaParams params_;
  WcmaWindow window_;  ///< last <= max(ks) elapsed slots.

  std::vector<double> candidate_pred_;   ///< ê_c for the upcoming slot.
  std::vector<double> candidate_loss_;   ///< discounted APE per candidate.
  std::vector<std::uint64_t> selection_counts_;
  std::size_t selected_ = 0;
  bool has_candidate_preds_ = false;
};

}  // namespace shep
