// wcma_fixed.hpp — the WCMA predictor as it runs on the microcontroller.
//
// A Q16.16 fixed-point re-implementation of core/wcma.hpp that additionally
// counts every arithmetic operation and memory access it performs.  Two
// consumers:
//  * tests: the fixed-point output must track the double-precision
//    reference within a small tolerance over the region of interest
//    (the double-vs-Q16.16 ablation, README "Synthetic substrate and
//    known deviations"), and
//  * src/hw: the operation counts, mapped through an MSP430-style cycle
//    cost table, yield the per-prediction energy of the paper's Table IV.
//
// The implementation mirrors a sensible embedded realisation:
//  * power enters pre-scaled by kInputScale (the analogue of working in
//    raw ADC counts rather than watts), which keeps dawn/dusk values far
//    above the Q16.16 quantisation floor — η ratios are scale-invariant,
//    so only the final prediction needs unscaling;
//  * μ_D is maintained as per-slot running column SUMS (one subtract + one
//    add per day rollover instead of a D-term summation per prediction);
//  * θ(k) = k/K weights come from a small ROM table (a load, not a divide);
//  * the α = 0 and α = 1 corners skip the unused term entirely — this is
//    why the paper's Table IV shows (K=7, α=0) cheaper than (K=7, α=0.7).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fixed_point.hpp"
#include "core/wcma.hpp"

namespace shep {

/// Dynamic operation counts of an MCU code region.
struct OpCounts {
  std::uint64_t add = 0;    ///< 16/32-bit additions & subtractions
  std::uint64_t mul = 0;    ///< hardware-multiplier operations
  std::uint64_t div = 0;    ///< software long divisions
  std::uint64_t load = 0;   ///< data-memory reads
  std::uint64_t store = 0;  ///< data-memory writes
  std::uint64_t branch = 0; ///< compares/branches

  OpCounts& operator+=(const OpCounts& o) {
    add += o.add;
    mul += o.mul;
    div += o.div;
    load += o.load;
    store += o.store;
    branch += o.branch;
    return *this;
  }

  /// Sum over every operation class.
  std::uint64_t total() const {
    return add + mul + div + load + store + branch;
  }
};

/// Fixed-point WCMA with operation accounting.
class FixedWcma final : public Predictor {
 public:
  /// Input pre-scaling applied to every sample (see file comment).  256
  /// maps the 0..2 W solar range onto 0..512 in Q16.16, mimicking an ADC
  /// count representation; the paper's MSP430 firmware works on raw
  /// 12-bit conversions for the same reason.
  static constexpr double kInputScale = 256.0;

  FixedWcma(const WcmaParams& params, int slots_per_day);

  void Observe(double boundary_sample) override;
  double PredictNext() const override;
  bool Ready() const override;
  void Reset() override;
  std::string Name() const override;

  /// Cumulative counts since construction/Reset, split by phase.
  const OpCounts& observe_ops() const { return observe_ops_; }
  const OpCounts& predict_ops() const { return predict_ops_; }

  /// Counts of the most recent PredictNext() call only (what one wake-up
  /// costs — the quantity Table IV reports).
  const OpCounts& last_predict_ops() const { return last_predict_ops_; }

  std::uint64_t observe_calls() const { return observe_calls_; }
  std::uint64_t predict_calls() const { return predict_calls_; }

 private:
  struct RecentSlot {
    Fx sample;
    Fx mu;
  };

  Fx MuOf(std::size_t slot, OpCounts& ops) const;

  WcmaParams params_;
  int slots_per_day_;
  Fx alpha_;
  Fx one_minus_alpha_;
  bool alpha_is_zero_;
  bool alpha_is_one_;

  std::vector<Fx> history_;      ///< D x N ring of past days (row-major).
  std::vector<Fx> column_sum_;   ///< per-slot running sums over stored rows.
  std::vector<Fx> current_day_;
  std::vector<Fx> theta_rom_;    ///< θ(k) = k/K table, k = 1..K.
  std::size_t stored_days_ = 0;
  std::size_t next_row_ = 0;
  std::size_t next_slot_ = 0;
  Fx last_sample_ = Fx::Zero();
  bool has_sample_ = false;
  RecentWindow<RecentSlot> recent_;

  mutable OpCounts observe_ops_;
  mutable OpCounts predict_ops_;
  mutable OpCounts last_predict_ops_;
  std::uint64_t observe_calls_ = 0;
  mutable std::uint64_t predict_calls_ = 0;
};

}  // namespace shep
