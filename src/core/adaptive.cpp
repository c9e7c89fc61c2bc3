#include "core/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/constants.hpp"

namespace shep {

namespace {

/// Slots the shared Φ window keeps: the largest candidate K (at least one,
/// so an invalid bank still reaches Validate()).
std::size_t WindowSlots(const AdaptiveWcmaParams& params) {
  int k = 1;
  for (int candidate : params.ks) k = std::max(k, candidate);
  return static_cast<std::size_t>(k);
}

}  // namespace

void AdaptiveWcmaParams::Validate() const {
  SHEP_REQUIRE(!alphas.empty() && !ks.empty(),
               "candidate bank must be non-empty");
  for (double a : alphas) {
    SHEP_REQUIRE(a >= 0.0 && a <= 1.0, "candidate alpha must be in [0,1]");
  }
  for (int k : ks) SHEP_REQUIRE(k >= 1, "candidate K must be >= 1");
  SHEP_REQUIRE(days >= 1, "D must be >= 1");
  SHEP_REQUIRE(discount >= 0.0 && discount < 1.0,
               "discount must be in [0,1)");
}

AdaptiveWcma::AdaptiveWcma(const AdaptiveWcmaParams& params,
                           int slots_per_day)
    : params_(params),
      slots_per_day_(slots_per_day),
      history_(static_cast<std::size_t>(std::max(params.days, 1)),
               static_cast<std::size_t>(std::max(slots_per_day, 1))),
      recent_(WindowSlots(params)) {
  params_.Validate();
  SHEP_REQUIRE(slots_per_day_ >= 2, "need at least two slots per day");
  SHEP_REQUIRE(recent_.capacity() < static_cast<std::size_t>(slots_per_day_),
               "candidate K must be < N");
  current_day_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
  phi_by_k_.assign(params_.ks.size(), 1.0);
  candidate_pred_.assign(params_.candidates(), 0.0);
  candidate_loss_.assign(params_.candidates(), 0.0);
  selection_counts_.assign(params_.candidates(), 0);
}

void AdaptiveWcma::RefreshCandidatePredictions() {
  const std::size_t predicted_slot = next_slot_;
  double mu_next = -1.0;
  if (history_.stored_days() > 0) mu_next = history_.Mu(predicted_slot);

  // Φ for every candidate K in one pass per K over the shared window.
  std::fill(phi_by_k_.begin(), phi_by_k_.end(), 1.0);
  for (std::size_t ki = 0; ki < params_.ks.size(); ++ki) {
    const auto want = static_cast<std::size_t>(params_.ks[ki]);
    const std::size_t k_avail = std::min(want, recent_.size());
    if (k_avail == 0) continue;
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < k_avail; ++i) {
      const double theta =
          static_cast<double>(i + 1) / static_cast<double>(k_avail);
      const auto& r = recent_[recent_.size() - k_avail + i];
      const double eta =
          r.mu > kNightEpsilonW ? r.sample / r.mu : 1.0;
      num += theta * eta;
      den += theta;
    }
    phi_by_k_[ki] = num / den;
  }

  for (std::size_t ai = 0; ai < params_.alphas.size(); ++ai) {
    const double alpha = params_.alphas[ai];
    for (std::size_t ki = 0; ki < params_.ks.size(); ++ki) {
      const double conditioned =
          mu_next >= 0.0 ? mu_next * phi_by_k_[ki] : last_sample_;
      candidate_pred_[ai * params_.ks.size() + ki] =
          alpha * last_sample_ + (1.0 - alpha) * conditioned;
    }
  }
  has_candidate_preds_ = true;
}

void AdaptiveWcma::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");

  // 1. Settle yesterday's bets: score every candidate's standing
  //    prediction against the slot that just completed.  The reference is
  //    the trapezoidal mean of its two boundary samples — the causal proxy
  //    for the slot-mean target the deployment is actually scored on
  //    (see file comment in adaptive.hpp).
  const double slot_mean_proxy = 0.5 * (last_sample_ + boundary_sample);
  if (has_candidate_preds_ && slot_mean_proxy > kNightEpsilonW) {
    for (std::size_t c = 0; c < candidate_loss_.size(); ++c) {
      const double ape =
          std::fabs(slot_mean_proxy - candidate_pred_[c]) / slot_mean_proxy;
      candidate_loss_[c] = params_.discount * candidate_loss_[c] +
                           (1.0 - params_.discount) * ape;
    }
    std::size_t best = 0;
    for (std::size_t c = 1; c < candidate_loss_.size(); ++c) {
      if (candidate_loss_[c] < candidate_loss_[best]) best = c;
    }
    selected_ = best;
  }
  ++selection_counts_[selected_];

  // 2. Standard WCMA state update (mirrors core/wcma.cpp).
  double mu = boundary_sample;
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

  // 3. Place the new bets for the upcoming slot.
  RefreshCandidatePredictions();
}

double AdaptiveWcma::PredictNext() const {
  SHEP_REQUIRE(has_sample_, "PredictNext before any Observe");
  SHEP_DCHECK(has_candidate_preds_, "candidate predictions missing");
  return std::max(0.0, candidate_pred_[selected_]);
}

bool AdaptiveWcma::Ready() const { return history_.full(); }

void AdaptiveWcma::Reset() {
  history_.Clear();
  current_day_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
  next_slot_ = 0;
  last_sample_ = 0.0;
  has_sample_ = false;
  recent_.Clear();
  std::fill(candidate_pred_.begin(), candidate_pred_.end(), 0.0);
  std::fill(candidate_loss_.begin(), candidate_loss_.end(), 0.0);
  std::fill(selection_counts_.begin(), selection_counts_.end(), 0);
  selected_ = 0;
  has_candidate_preds_ = false;
}

double AdaptiveWcma::selected_alpha() const {
  return params_.alphas[selected_ / params_.ks.size()];
}

int AdaptiveWcma::selected_k() const {
  return params_.ks[selected_ % params_.ks.size()];
}

std::string AdaptiveWcma::Name() const {
  std::ostringstream os;
  os << "AdaptiveWCMA(" << params_.alphas.size() << "x" << params_.ks.size()
     << " bank,D=" << params_.days << ",discount=" << params_.discount
     << ")";
  return os.str();
}

}  // namespace shep
