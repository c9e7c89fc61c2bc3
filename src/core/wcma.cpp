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

namespace {

/// The window length, checked against the day before anything is sized
/// from it.
std::size_t CheckedWindow(int window_slots, int slots_per_day) {
  SHEP_REQUIRE(slots_per_day >= 2, "need at least two slots per day");
  SHEP_REQUIRE(window_slots >= 1 && window_slots < slots_per_day,
               "K must be >= 1 and smaller than the number of slots per day");
  return static_cast<std::size_t>(window_slots);
}

}  // namespace

WcmaWindow::WcmaWindow(int days, int slots_per_day, int window_slots)
    : history_(days, slots_per_day),
      recent_(CheckedWindow(window_slots, slots_per_day)) {}

double WcmaWindow::Phi(std::size_t k, WcmaWeighting weighting) const {
  const std::size_t k_avail = std::min(k, recent_.size());
  if (k_avail == 0) return 1.0;
  const std::size_t first = recent_.size() - k_avail;
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < k_avail; ++i) {
    // i = 0 is the oldest slot used; the paper's index k runs 1..K with
    // k = K at the most recent slot, θ(k) = k/K.
    const double theta =
        weighting == WcmaWeighting::kRamp
            ? static_cast<double>(i + 1) / static_cast<double>(k_avail)
            : 1.0;
    const auto& r = recent_[first + i];
    const double eta =
        r.mu > kNightEpsilonW ? r.sample / r.mu : 1.0;
    num += theta * eta;
    den += theta;
  }
  SHEP_DCHECK(den > 0.0, "phi weights must be positive");
  return num / den;
}

Wcma::Wcma(const WcmaParams& params, int slots_per_day,
           WcmaWeighting weighting)
    : params_(params),
      weighting_(weighting),
      window_(params.days, slots_per_day, params.slots_k) {
  params_.Validate();
}

void Wcma::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");
  window_.Observe(boundary_sample);
}

double Wcma::CurrentPhi() const {
  return window_.Phi(static_cast<std::size_t>(params_.slots_k), weighting_);
}

double Wcma::CurrentMu(std::size_t slot) const {
  return window_.history().Mu(slot);
}

double Wcma::PredictNext() const {
  const HistoryMatrix& history = window_.history();
  SHEP_REQUIRE(history.has_sample(), "PredictNext before any Observe");
  const double last = history.last_sample();
  double conditioned;
  if (history.stored_days() == 0) {
    // No past days at all: the conditioned-average term degenerates to
    // persistence.
    conditioned = last;
  } else {
    // The slot to predict is the one the next Observe() will fill.
    conditioned = history.Mu(history.next_slot()) * CurrentPhi();
  }
  return params_.alpha * last + (1.0 - params_.alpha) * conditioned;
}

bool Wcma::Ready() const { return window_.history().full(); }

void Wcma::Reset() { window_.Clear(); }

std::string Wcma::Name() const {
  std::ostringstream os;
  os << "WCMA(a=" << params_.alpha << ",D=" << params_.days
     << ",K=" << params_.slots_k
     << (weighting_ == WcmaWeighting::kUniform ? ",uniform" : "") << ")";
  return os.str();
}

}  // namespace shep
