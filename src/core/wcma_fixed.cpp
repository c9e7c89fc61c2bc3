#include "core/wcma_fixed.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "common/constants.hpp"

namespace shep {

namespace {
/// μ below kNightEpsilonW is treated as night (η undefined -> neutral 1),
/// mirroring the double implementation's guard at a threshold representable
/// after input scaling (1 mW × 256 = 0.256 in Q16.16).
const Fx kNightEpsilon = Fx::FromDouble(kNightEpsilonW * FixedWcma::kInputScale);
}  // namespace

FixedWcma::FixedWcma(const WcmaParams& params, int slots_per_day)
    : params_(params),
      slots_per_day_(slots_per_day),
      recent_(static_cast<std::size_t>(std::max(params.slots_k, 1))) {
  params_.Validate();
  SHEP_REQUIRE(slots_per_day_ >= 2, "need at least two slots per day");
  SHEP_REQUIRE(params_.slots_k < slots_per_day_,
               "K must be smaller than the number of slots per day");
  alpha_ = Fx::FromDouble(params_.alpha);
  one_minus_alpha_ = Fx::One() - alpha_;
  alpha_is_zero_ = alpha_.raw() == 0;
  alpha_is_one_ = alpha_.raw() == Fx::One().raw();
  const auto n = static_cast<std::size_t>(slots_per_day_);
  const auto d = static_cast<std::size_t>(params_.days);
  history_.assign(d * n, Fx::Zero());
  column_sum_.assign(n, Fx::Zero());
  current_day_.assign(n, Fx::Zero());
  theta_rom_.resize(static_cast<std::size_t>(params_.slots_k));
  for (int k = 1; k <= params_.slots_k; ++k) {
    theta_rom_[static_cast<std::size_t>(k - 1)] =
        Fx::FromDouble(static_cast<double>(k) / params_.slots_k);
  }
}

Fx FixedWcma::MuOf(std::size_t slot, OpCounts& ops) const {
  SHEP_DCHECK(stored_days_ > 0, "MuOf with no history");
  // Running column sum divided by the number of stored days: one load and
  // one software division on the MCU.
  ops.load += 1;
  ops.div += 1;
  return column_sum_[slot] / Fx::FromInt(static_cast<int>(stored_days_));
}

void FixedWcma::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");
  const Fx sample = Fx::FromDouble(boundary_sample * kInputScale);
  ++observe_calls_;
  OpCounts ops;

  // Record (sample, μ as of now) for the Φ window.
  Fx mu = sample;
  ops.branch += 1;  // "any history yet?"
  if (stored_days_ > 0) mu = MuOf(next_slot_, ops);
  recent_.Push(RecentSlot{sample, mu});
  ops.store += 2;
  ops.branch += 1;  // window-full check

  current_day_[next_slot_] = sample;
  ops.store += 1;
  last_sample_ = sample;
  has_sample_ = true;

  ++next_slot_;
  ops.add += 1;      // slot counter increment
  ops.branch += 1;   // end-of-day check
  if (next_slot_ == static_cast<std::size_t>(slots_per_day_)) {
    // Day rollover: fold the finished day into the ring and the running
    // column sums (subtract the evicted row, add the new one).
    const auto n = static_cast<std::size_t>(slots_per_day_);
    const bool evicting =
        stored_days_ == static_cast<std::size_t>(params_.days);
    for (std::size_t j = 0; j < n; ++j) {
      if (evicting) {
        column_sum_[j] = column_sum_[j] - history_[next_row_ * n + j];
        ops.load += 1;
        ops.add += 1;
      }
      column_sum_[j] = column_sum_[j] + current_day_[j];
      history_[next_row_ * n + j] = current_day_[j];
      ops.load += 2;
      ops.add += 1;
      ops.store += 2;
    }
    next_row_ = (next_row_ + 1) % static_cast<std::size_t>(params_.days);
    if (!evicting) ++stored_days_;
    next_slot_ = 0;
  }
  observe_ops_ += ops;
}

double FixedWcma::PredictNext() const {
  SHEP_REQUIRE(has_sample_, "PredictNext before any Observe");
  ++predict_calls_;
  OpCounts ops;

  Fx result;
  ops.branch += 1;  // α == 1 fast path
  if (alpha_is_one_) {
    result = last_sample_;
    ops.load += 1;
  } else {
    // Conditioned-average term: μ_D(n+1) · Φ_K.
    Fx conditioned;
    ops.branch += 1;  // history present?
    if (stored_days_ == 0) {
      conditioned = last_sample_;
      ops.load += 1;
    } else {
      const Fx mu_next = MuOf(next_slot_, ops);
      // Φ = Σ θ(k)·η(k) / Σ θ(k); Σθ comes from ROM (precomputed per K).
      Fx num = Fx::Zero();
      Fx den = Fx::Zero();
      const std::size_t k_avail = recent_.size();
      for (std::size_t i = 0; i < k_avail; ++i) {
        // θ index is scaled so the newest retained slot gets weight 1 even
        // during warm-up when fewer than K slots exist.
        const std::size_t theta_index =
            theta_rom_.size() - k_avail + i;
        const Fx theta = theta_rom_[theta_index];
        ops.load += 1;
        const auto& r = recent_[i];
        ops.load += 2;
        Fx eta;
        ops.branch += 1;  // night guard
        if (r.mu > kNightEpsilon) {
          eta = r.sample / r.mu;
          ops.div += 1;
        } else {
          eta = Fx::One();
        }
        num = num + theta * eta;
        den = den + theta;
        ops.mul += 1;
        ops.add += 2;
      }
      const Fx phi = den > Fx::Zero() ? num / den : Fx::One();
      ops.div += 1;
      conditioned = mu_next * phi;
      ops.mul += 1;
    }
    ops.branch += 1;  // α == 0 fast path
    if (alpha_is_zero_) {
      result = conditioned;
    } else {
      result = alpha_ * last_sample_ + one_minus_alpha_ * conditioned;
      ops.mul += 2;
      ops.add += 1;
      ops.load += 1;
    }
  }

  last_predict_ops_ = ops;
  predict_ops_ += ops;
  // Clamp negatives (saturating arithmetic can in principle go below zero
  // on pathological inputs; power is non-negative).
  if (result < Fx::Zero()) result = Fx::Zero();
  return result.ToDouble() / kInputScale;
}

bool FixedWcma::Ready() const {
  return stored_days_ == static_cast<std::size_t>(params_.days);
}

void FixedWcma::Reset() {
  const auto n = static_cast<std::size_t>(slots_per_day_);
  const auto d = static_cast<std::size_t>(params_.days);
  history_.assign(d * n, Fx::Zero());
  column_sum_.assign(n, Fx::Zero());
  current_day_.assign(n, Fx::Zero());
  stored_days_ = 0;
  next_row_ = 0;
  next_slot_ = 0;
  last_sample_ = Fx::Zero();
  has_sample_ = false;
  recent_.Clear();
  observe_ops_ = OpCounts{};
  predict_ops_ = OpCounts{};
  last_predict_ops_ = OpCounts{};
  observe_calls_ = 0;
  predict_calls_ = 0;
}

std::string FixedWcma::Name() const {
  std::ostringstream os;
  os << "FixedWCMA(a=" << params_.alpha << ",D=" << params_.days
     << ",K=" << params_.slots_k << ")";
  return os.str();
}

}  // namespace shep
