// evaluator.hpp — fast batch evaluation of WCMA configurations.
//
// A naive sweep would re-run the streaming predictor for every (α, D, K)
// triple — O(grid × trace) with a full history-matrix update per slot.  The
// paper's grid has 11×19×6 = 1254 triples per (data set, N), so we exploit
// the algebra of Eq. 1 instead:
//
//   ê(g+1) = α·P(g) + (1−α)·Q_{D,K}(g)
//
// with P(g) = ẽ(g) independent of all parameters and Q = μ_D·Φ_K
// independent of α.  SweepContext precomputes, once per (trace, N):
//   * the slot series (boundary samples + interval means),
//   * per-slot prefix sums across days, making any μ_D an O(1) lookup.
// BuildD then materialises the η ratio series for one D.  GridScorer
// evaluates the ROI filter once per sweep into the list of slots either
// reference admits; its ScoreD walks that list once per D and, per slot,
// computes Q for every K and updates every (K, α) pair's sums.  Score
// runs the same scoring pass for one α over a Q series from BuildQ, and
// BuildQ and ScoreD compute Q with one shared expression.  Each pair keeps
// the expression α·P + (1−α)·Q and sums in ascending slot order, so its
// statistics are the same bits as Score(BuildQ(BuildD(D), K), α).  The
// result is numerically identical (modulo FP association) to running
// core/wcma.hpp slot by slot — tests/test_evaluator.cpp asserts exactly
// that equivalence.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/wcma.hpp"
#include "metrics/error.hpp"
#include "timeseries/slotting.hpp"
#include "timeseries/trace.hpp"

namespace shep {

/// Shared precomputation for all sweeps over one (trace, N) pair.
class SweepContext {
 public:
  SweepContext(const PowerTrace& trace, int slots_per_day);

  const std::string& dataset() const { return dataset_; }
  const SlotSeries& series() const { return series_; }
  int slots_per_day() const { return static_cast<int>(series_.slots_per_day()); }

  /// Number of scored predictions (slots minus the final one).
  std::size_t points() const { return series_.size() - 1; }

  /// Peak of the interval means (ROI reference for MAPE).
  double peak_mean() const { return peak_mean_; }

  /// Peak of the boundary samples (ROI reference for MAPE′).
  double peak_boundary() const { return peak_boundary_; }

  /// μ_D(slot) over the `window` days strictly before `day`.
  /// Requires 1 <= window <= day.
  double MuBefore(std::size_t day, std::size_t slot,
                  std::size_t window) const;

  /// Per-D intermediate series, indexed by global slot g (prediction made
  /// after observing boundary(g)).
  struct DSeries {
    int days_d = 0;
    /// μ_D of the predicted slot g+1; negative sentinel when no past day
    /// exists yet (predictor falls back to persistence).
    std::vector<double> mu_pred;
    /// Brightness ratio η(g) = ẽ(g)/μ_D(slot of g); 1 during day 0 and for
    /// night slots (μ below the guard threshold).
    std::vector<double> eta;
  };
  DSeries BuildD(int days_d) const;

  /// Conditioned-average series Q(g) = μ_D(g+1)·Φ_K(g) for one (D, K);
  /// where μ is the persistence-fallback sentinel, Q(g) = ẽ(g).
  std::vector<double> BuildQ(const DSeries& d, int slots_k,
                             WcmaWeighting weighting = WcmaWeighting::kRamp) const;

  /// Error statistics of ê = α·P + (1−α)·Q against both references.
  struct ConfigScore {
    ErrorStats mean;      ///< vs slot mean (MAPE, Eq. 7/8)
    ErrorStats boundary;  ///< vs next boundary sample (MAPE′, Eq. 6)
  };

  /// Scores one α against `q`.  Throws std::invalid_argument when α lies
  /// outside [0, 1].
  ConfigScore Score(const std::vector<double>& q, double alpha,
                    const RoiFilter& filter = {}) const;

 private:
  /// A slot g that either reference admits under one RoiFilter.
  struct RoiSlot {
    std::size_t g = 0;
    bool mean = false;      ///< scored against the slot mean
    bool boundary = false;  ///< scored against the next boundary sample
  };

 public:
  /// Scores a K × α grid one D at a time.  The constructor checks every K
  /// and α, evaluates the ROI filter once and builds each K's θ table, so
  /// a sweep validates its grid before any D is scored and its D tasks
  /// share this object read-only.
  class GridScorer {
   public:
    /// Throws std::invalid_argument unless every K lies in [1, N) and
    /// every α in [0, 1].  Keeps a reference to `context`.
    GridScorer(const SweepContext& context, std::span<const int> ks,
               std::span<const double> alphas, const RoiFilter& filter = {},
               WcmaWeighting weighting = WcmaWeighting::kRamp);

    /// Every (K, α) of one D in one pass over the ROI slots; element
    /// i_k·|alphas| + i_a scores (ks[i_k], alphas[i_a]) and equals
    /// Score(BuildQ(d, ks[i_k], weighting), alphas[i_a], filter) bit for
    /// bit.
    std::vector<ConfigScore> ScoreD(const DSeries& d) const;

   private:
    const SweepContext& context_;
    std::vector<double> alphas_;
    std::vector<std::vector<double>> theta_;  ///< θ_i of each K
    std::vector<double> den_;                 ///< Σθ of each K
    std::vector<RoiSlot> roi_;
  };

  /// Full streaming-equivalent evaluation of a single configuration;
  /// convenience for tests and the Fig. 7 D-sweep.
  ConfigScore EvaluateConfig(const WcmaParams& params,
                             const RoiFilter& filter = {},
                             WcmaWeighting weighting = WcmaWeighting::kRamp) const;

 private:
  std::vector<RoiSlot> BuildRoi(const RoiFilter& filter) const;

  /// The one scoring pass: walks `roi` once; at each slot `fill_q(g, p, q)`
  /// writes Q(g) of each of `n_q` designs into q (p = ẽ(g)), and every
  /// (design, α) pair adds its error to its sums.  Element
  /// i_q·|alphas| + i_a of the result scores design i_q at alphas[i_a].
  template <typename FillQ>
  std::vector<ConfigScore> ScoreRoi(std::span<const RoiSlot> roi,
                                    std::size_t n_q,
                                    std::span<const double> alphas,
                                    FillQ fill_q) const;

  std::string dataset_;
  SlotSeries series_;
  /// cum_[(day)*N + slot] = Σ of boundary(d, slot) for d < day;
  /// (days+1) × N entries.
  std::vector<double> cum_;
  double peak_mean_ = 0.0;
  double peak_boundary_ = 0.0;
};

}  // namespace shep
