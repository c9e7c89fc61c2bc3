// sweep.hpp — exhaustive (α, D, K) exploration and result queries.
//
// Drives SweepContext over a full ParamGrid, optionally in parallel, and
// stores one SweepPoint per configuration.  SweepResult then answers the
// questions the paper's tables ask:
//   * Table II : argmin under MAPE′ vs argmin under MAPE at N = 48;
//   * Table III: argmin under MAPE per N, plus the best achievable MAPE
//                when K is pinned to 2 (the "MAPE@K=2" column);
//   * Fig. 7   : MAPE as a function of D with (α, K) pinned.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "metrics/error.hpp"
#include "sweep/evaluator.hpp"
#include "sweep/grid.hpp"
#include "common/threadpool.hpp"

namespace shep {

/// Result of one (α, D, K) configuration at a fixed (data set, N).
struct SweepPoint {
  double alpha = 0.0;
  int days_d = 0;
  int slots_k = 0;
  ErrorStats mean_stats;      ///< scored against slot means (MAPE).
  ErrorStats boundary_stats;  ///< scored against boundary samples (MAPE′).
};

/// All configurations of a grid evaluated on one (data set, N).
struct SweepResult {
  std::string dataset;
  int slots_per_day = 0;
  bool degenerate = false;  ///< N=288 on a 5-minute trace (Table III "†").
  ParamGrid grid;
  /// Indexed [iD][iK][iA] flattened D-major: ((iD*ks+iK)*alphas+iA).
  std::vector<SweepPoint> points;

  const SweepPoint& At(std::size_t i_d, std::size_t i_k,
                       std::size_t i_a) const;

  /// Configuration minimizing MAPE (slot-mean reference).  The three Best*
  /// queries throw std::invalid_argument when the sweep scored no slot
  /// (the ROI filter excluded every one).
  const SweepPoint& BestByMape() const;

  /// Configuration minimizing MAPE′ (boundary reference) — what prior work
  /// would have tuned for (Table II left half).
  const SweepPoint& BestByMapePrime() const;

  /// Best MAPE subject to K = k; null when k is not in the grid.
  const SweepPoint* BestByMapeWithK(int k) const;

  /// Exact lookup; null when the triple is not on the grid.
  const SweepPoint* Find(double alpha, int days_d, int slots_k) const;
};

/// Runs the full grid on a prepared context.  `pool` may be null (serial).
SweepResult SweepWcma(const SweepContext& context, const ParamGrid& grid,
                      const RoiFilter& filter = {}, ThreadPool* pool = nullptr,
                      WcmaWeighting weighting = WcmaWeighting::kRamp);

}  // namespace shep
