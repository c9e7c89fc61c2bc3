// error.hpp — prediction-error evaluation (paper Section III).
//
// The paper's methodological contribution: a prediction ê(n+1) is used by
// the energy manager to estimate the *energy* of the upcoming slot
// (ê·T), so it should be scored against the slot's MEAN power e̅ (Eq. 7,
// "MAPE") rather than against the instantaneous sample at the next slot
// boundary (Eq. 6, "MAPE′") as earlier work did.  Averaging uses Mean
// Absolute Percentage Error (Eq. 8) because it is scale-free (traces from
// different sites are comparable) and robust to the outliers that make
// RMSE misleading on bursty solar data.  RMSE / MAE / MBE are also provided
// so the library can reproduce that comparison.
//
// Two protocol details from Sec. IV-A are first-class here:
//  * evaluation covers days 21..365 (so the D=20 history matrix is full and
//    every D value scores the same sample set), and
//  * only slots whose reference value is at least 10 % of the trace peak
//    enter the average (night and dawn/dusk slots are predictable but
//    meaningless for energy management).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace shep {

/// One scored prediction: what the algorithm said for a slot, and the two
/// candidate ground-truth values for that same slot.
struct PredictionPoint {
  std::size_t day = 0;      ///< 0-based day index of the predicted slot.
  std::size_t slot = 0;     ///< slot-of-day of the predicted slot.
  double predicted = 0.0;   ///< ê for the slot.
  double boundary = 0.0;    ///< measured sample at the slot start (Eq. 6 ref).
  double mean = 0.0;        ///< measured mean power of the slot (Eq. 7 ref).
};

/// Which ground truth a metric compares against.
enum class ErrorTarget {
  kSlotMean,        ///< e̅: the paper's proposed reference (MAPE).
  kBoundarySample,  ///< e(n+1): the reference used by prior work (MAPE′).
};

/// Region-of-interest filter (paper Sec. III / IV-A).
struct RoiFilter {
  /// Only score slots whose reference value >= threshold_fraction * peak.
  double threshold_fraction = 0.10;
  /// First 0-based day included (paper: day index 20, i.e. "day 21").
  std::size_t first_day = 20;
  /// One-past-last day included; ~0 means "to the end of the trace".
  std::size_t end_day = static_cast<std::size_t>(-1);

  bool Includes(std::size_t day, double reference, double peak) const {
    return day >= first_day && day < end_day &&
           reference >= threshold_fraction * peak;
  }
};

/// Aggregate error statistics over the in-ROI points.
struct ErrorStats {
  double mape = 0.0;   ///< mean(|err| / reference)      — Eq. 8.
  double mae = 0.0;    ///< mean(|err|)                  (scale-dependent).
  double rmse = 0.0;   ///< sqrt(mean(err^2))            (outlier-sensitive).
  double mbe = 0.0;    ///< mean(err), signed bias (reference - predicted).
  std::size_t count = 0;  ///< number of points scored.

  bool valid() const { return count > 0; }
};

/// Scores `points` against the chosen reference.  `peak` is the maximum
/// reference value over the whole evaluation series (the paper's "peak");
/// must be positive when any point passes the filter.
ErrorStats EvaluateErrors(std::span<const PredictionPoint> points,
                          ErrorTarget target, double peak,
                          const RoiFilter& filter = {});

/// Absolute percentage error of a single point against the chosen
/// reference; helper for the clairvoyant dynamic-parameter study
/// (Sec. IV-C), which minimizes per-point error before averaging.
double AbsolutePercentageError(const PredictionPoint& point,
                               ErrorTarget target);

/// Reference value of a point for the chosen target.
double Reference(const PredictionPoint& point, ErrorTarget target);

}  // namespace shep
