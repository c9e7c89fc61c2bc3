#include "core/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/constants.hpp"

namespace shep {

namespace {

/// Slots the shared Φ window keeps: the largest candidate K (at least one,
/// so an empty bank still reaches Validate()).
int WindowSlots(const AdaptiveWcmaParams& params) {
  int k = 1;
  for (int candidate : params.ks) k = std::max(k, candidate);
  return k;
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
      window_(params.days, slots_per_day, WindowSlots(params)) {
  params_.Validate();
  candidate_pred_.assign(params_.candidates(), 0.0);
  candidate_loss_.assign(params_.candidates(), 0.0);
  selection_counts_.assign(params_.candidates(), 0);
}

void AdaptiveWcma::RefreshCandidatePredictions() {
  const HistoryMatrix& history = window_.history();
  const double last = history.last_sample();
  double mu_next = -1.0;
  if (history.stored_days() > 0) mu_next = history.Mu(history.next_slot());

  const std::size_t nk = params_.ks.size();
  for (std::size_t ki = 0; ki < nk; ++ki) {
    const double phi = window_.Phi(static_cast<std::size_t>(params_.ks[ki]),
                                   WcmaWeighting::kRamp);
    const double conditioned = mu_next >= 0.0 ? mu_next * phi : last;
    for (std::size_t ai = 0; ai < params_.alphas.size(); ++ai) {
      const double alpha = params_.alphas[ai];
      candidate_pred_[ai * nk + ki] =
          alpha * last + (1.0 - alpha) * conditioned;
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
  const double slot_mean_proxy =
      0.5 * (window_.history().last_sample() + boundary_sample);
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

  // 2. Standard WCMA state update.
  window_.Observe(boundary_sample);

  // 3. Place the new bets for the upcoming slot.
  RefreshCandidatePredictions();
}

double AdaptiveWcma::PredictNext() const {
  SHEP_REQUIRE(window_.history().has_sample(),
               "PredictNext before any Observe");
  SHEP_DCHECK(has_candidate_preds_, "candidate predictions missing");
  return std::max(0.0, candidate_pred_[selected_]);
}

bool AdaptiveWcma::Ready() const { return window_.history().full(); }

void AdaptiveWcma::Reset() {
  window_.Clear();
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
