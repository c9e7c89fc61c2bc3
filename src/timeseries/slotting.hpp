// slotting.hpp — day discretization into N prediction slots (paper Sec. II).
//
// For energy management the day is discretized into N equal-duration slots;
// power is sampled once per slot (at the slot start boundary) and the slot
// length T = 86400/N seconds is the prediction horizon.  Each slot contains
// M = samples_per_day/N raw trace samples (paper Fig. 4).  Two per-slot
// quantities matter:
//
//  * boundary sample e(n):  the instantaneous power at the start of slot n —
//    this is the only value the deployed predictor ever sees (one ADC read
//    per slot), and the value used by the paper's MAPE' error (Eq. 6).
//  * interval mean  e̅(n):  the mean of the M samples inside slot n — the
//    slot's actual received energy is e̅(n)*T, so the paper's proposed MAPE
//    (Eq. 7/8) compares predictions against this.
//
// SlotSeries precomputes both for every slot of a trace so that sweeps over
// predictor parameters never touch the raw samples again.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "timeseries/trace.hpp"

namespace shep {

/// Slot counts evaluated by the paper (Table III).
inline constexpr int kPaperSlotCounts[] = {288, 96, 72, 48, 24};

/// Geometry of the N-slot discretization of one day for a given trace
/// resolution.
struct SlotGrid {
  int slots_per_day = 0;     ///< N
  int samples_per_slot = 0;  ///< M
  int slot_seconds = 0;      ///< T = 86400/N

  /// Builds the grid; requires N > 0, N dividing the day, and the trace
  /// resolution dividing the slot length (M >= 1).
  static SlotGrid Make(const PowerTrace& trace, int slots_per_day);

  /// The same grid for samples every `resolution_s` seconds.
  static SlotGrid Make(int resolution_s, int slots_per_day);

  /// True when the discretization is representable for this trace, i.e. the
  /// slot length is a multiple of the trace resolution.  N=288 on a 5-minute
  /// trace yields M=1 and is flagged degenerate (paper Table III footnote:
  /// "N=288 is not defined" for the 5-minute data sets, because the slot
  /// mean and the boundary sample coincide).
  bool degenerate() const { return samples_per_slot == 1; }
};

/// Per-slot view of a whole trace: boundary samples and interval means,
/// flattened day-major (global slot index g = day*N + slot).
class SlotSeries {
 public:
  /// Discretizes `trace` into `slots_per_day` slots.
  SlotSeries(const PowerTrace& trace, int slots_per_day);

  /// An empty series on `grid` with storage reserved for `days` days, to be
  /// filled one day at a time by AppendDay — for producers that never hold
  /// a whole trace (SynthesizeSlotSeries).
  SlotSeries(const SlotGrid& grid, std::size_t days);

  /// Folds one day of N × M samples into its N boundaries and means, and
  /// the peak.  A series built day by day is bit-identical to one built
  /// from the concatenated trace.  Appending past the reserved days
  /// reallocates.
  void AppendDay(std::span<const double> day_samples);

  const SlotGrid& grid() const { return grid_; }
  std::size_t days() const { return boundary_.size() / slots_per_day(); }

  /// Total number of slots = days * N.
  std::size_t size() const { return boundary_.size(); }

  /// Boundary sample e(g) of global slot g.
  double boundary(std::size_t g) const { return boundary_[g]; }

  /// Interval mean e̅(g) of global slot g.
  double mean(std::size_t g) const { return mean_[g]; }

  /// Energy received during global slot g, in joules (= mean * T).
  double slot_energy_j(std::size_t g) const {
    return mean_[g] * static_cast<double>(grid_.slot_seconds);
  }

  /// All boundary samples, day-major.
  std::span<const double> boundaries() const { return boundary_; }

  /// All interval means, day-major.
  std::span<const double> means() const { return mean_; }

  /// Boundary samples of one day.
  std::span<const double> day_boundaries(std::size_t day) const;

  /// Interval means of one day.
  std::span<const double> day_means(std::size_t day) const;

  /// Maximum interval mean over the whole series — the "peak" against which
  /// the paper's 10 % region-of-interest threshold is applied.
  double peak_mean() const { return peak_mean_; }

  /// Global slot index for (day, slot-of-day).
  std::size_t global_index(std::size_t day, std::size_t slot) const;

  /// Day of a global slot index.
  std::size_t day_of(std::size_t g) const { return g / slots_per_day(); }

  /// Slot-of-day of a global slot index.
  std::size_t slot_of(std::size_t g) const { return g % slots_per_day(); }

  std::size_t slots_per_day() const {
    return static_cast<std::size_t>(grid_.slots_per_day);
  }

 private:
  SlotGrid grid_;
  std::vector<double> boundary_;
  std::vector<double> mean_;
  double peak_mean_ = 0.0;
};

}  // namespace shep
