#include "core/wcma.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "common/constants.hpp"

namespace shep {

void WcmaParams::Validate() const {
  SHEP_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0,1]");
  SHEP_REQUIRE(days >= 1, "D must be >= 1");
  SHEP_REQUIRE(slots_k >= 1, "K must be >= 1");
}

Wcma::Wcma(const WcmaParams& params, int slots_per_day,
           WcmaWeighting weighting)
    : params_(params),
      slots_per_day_(slots_per_day),
      weighting_(weighting),
      history_(static_cast<std::size_t>(params.days),
               static_cast<std::size_t>(slots_per_day)),
      recent_(static_cast<std::size_t>(std::max(params.slots_k, 1))) {
  params_.Validate();
  SHEP_REQUIRE(slots_per_day_ >= 2, "need at least two slots per day");
  SHEP_REQUIRE(params_.slots_k < slots_per_day_,
               "K must be smaller than the number of slots per day");
  current_day_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
}

void Wcma::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");
  // Record the historical average the conditioning factor should compare
  // this sample against *as seen now* (before today is pushed into the
  // matrix); this also makes day-boundary wrap-around of the K window
  // automatic.
  double mu = boundary_sample;  // neutral when no history yet (η = 1)
  if (history_.stored_days() > 0) mu = history_.Mu(next_slot_);
  recent_.Push(RecentSlot{boundary_sample, mu});

  current_day_[next_slot_] = boundary_sample;
  last_sample_ = boundary_sample;
  has_sample_ = true;

  ++next_slot_;
  if (next_slot_ == static_cast<std::size_t>(slots_per_day_)) {
    history_.PushDay(current_day_);
    next_slot_ = 0;
  }
}

double Wcma::CurrentPhi() const {
  if (recent_.empty()) return 1.0;
  const auto k_avail = recent_.size();
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < k_avail; ++i) {
    // i = 0 is the oldest retained slot; the paper's index k runs 1..K with
    // k = K at the most recent slot, θ(k) = k/K.
    const double theta =
        weighting_ == WcmaWeighting::kRamp
            ? static_cast<double>(i + 1) / static_cast<double>(k_avail)
            : 1.0;
    const auto& r = recent_[i];
    const double eta =
        r.mu > kNightEpsilonW ? r.sample / r.mu : 1.0;
    num += theta * eta;
    den += theta;
  }
  SHEP_DCHECK(den > 0.0, "phi weights must be positive");
  return num / den;
}

double Wcma::CurrentMu(std::size_t slot) const {
  SHEP_REQUIRE(slot < static_cast<std::size_t>(slots_per_day_),
               "slot index out of range");
  SHEP_REQUIRE(history_.stored_days() > 0, "no history stored yet");
  return history_.Mu(slot);
}

double Wcma::PredictNext() const {
  SHEP_REQUIRE(has_sample_, "PredictNext before any Observe");
  // The slot to predict is the one the next Observe() will fill.
  const std::size_t predicted_slot = next_slot_;

  double conditioned;
  if (history_.stored_days() == 0) {
    // No past days at all: the conditioned-average term degenerates to
    // persistence.
    conditioned = last_sample_;
  } else {
    conditioned = history_.Mu(predicted_slot) * CurrentPhi();
  }
  return params_.alpha * last_sample_ + (1.0 - params_.alpha) * conditioned;
}

bool Wcma::Ready() const { return history_.full(); }

void Wcma::Reset() {
  history_.Clear();
  current_day_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
  next_slot_ = 0;
  last_sample_ = 0.0;
  has_sample_ = false;
  recent_.Clear();
}

std::string Wcma::Name() const {
  std::ostringstream os;
  os << "WCMA(a=" << params_.alpha << ",D=" << params_.days
     << ",K=" << params_.slots_k
     << (weighting_ == WcmaWeighting::kUniform ? ",uniform" : "") << ")";
  return os.str();
}

}  // namespace shep
