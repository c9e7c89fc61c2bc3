#include "core/ar.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "common/mathutil.hpp"

namespace shep {

namespace {
/// Ratios are clamped into a sane band before entering the regression so
/// a single dawn outlier cannot destabilise the covariance.
constexpr double kMaxRatio = 5.0;
}  // namespace

void ArParams::Validate() const {
  SHEP_REQUIRE(order >= 1 && order <= 16, "AR order must be in [1,16]");
  SHEP_REQUIRE(days >= 1, "D must be >= 1");
  SHEP_REQUIRE(lambda > 0.0 && lambda <= 1.0,
               "forgetting factor must be in (0,1]");
  SHEP_REQUIRE(delta > 0.0, "initial covariance must be positive");
}

ArPredictor::ArPredictor(const ArParams& params, int slots_per_day)
    : params_(params),
      slots_per_day_(slots_per_day),
      history_(static_cast<std::size_t>(std::max(params.days, 1)),
               static_cast<std::size_t>(std::max(slots_per_day, 1))),
      ratio_lags_(static_cast<std::size_t>(std::max(params.order, 1))) {
  params_.Validate();
  SHEP_REQUIRE(slots_per_day_ >= 2, "need at least two slots per day");
  current_day_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
  const auto dim = static_cast<std::size_t>(params_.order + 1);
  theta_.assign(dim, 0.0);
  theta_[0] = 0.0;
  theta_[1] = 1.0;  // start as "ratio persists" — a sensible prior
  ResetCovariance();
  x_.assign(dim, 0.0);
  px_.assign(dim, 0.0);
  gain_.assign(dim, 0.0);
}

double ArPredictor::Feature(std::size_t i) const {
  if (i == 0 || i > ratio_lags_.size()) return 1.0;
  return ratio_lags_[ratio_lags_.size() - i];
}

void ArPredictor::ResetCovariance() {
  const std::size_t dim = theta_.size();
  cov_.assign(dim * dim, 0.0);  // same size: reuses the storage.
  for (std::size_t i = 0; i < dim; ++i) cov_[i * dim + i] = params_.delta;
}

double ArPredictor::RlsDenominator() {
  const std::size_t dim = x_.size();
  std::fill(px_.begin(), px_.end(), 0.0);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      px_[i] += cov_[i * dim + j] * x_[j];
    }
  }
  double denom = params_.lambda;
  for (std::size_t i = 0; i < dim; ++i) denom += x_[i] * px_[i];
  return denom;
}

void ArPredictor::RlsUpdate(double target) {
  const std::size_t dim = x_.size();
  for (std::size_t i = 0; i < dim; ++i) x_[i] = Feature(i);
  // k = P x / (λ + xᵀ P x)
  double denom = RlsDenominator();
  if (!(denom > 0.0)) {
    // Rounding has made P indefinite (on SPMD at N = 48 with λ = 0.995
    // this first happens after about 6 000 updates).  Restart P from the δI
    // prior, in place: then xᵀ P x = δ|x|² > 0, so the update below
    // subtracts a positive semidefinite term from P instead of adding one.
    ResetCovariance();
    denom = RlsDenominator();
  }
  for (std::size_t i = 0; i < dim; ++i) gain_[i] = px_[i] / denom;

  // θ += k (target − θᵀx)
  double innovation = target;
  for (std::size_t i = 0; i < dim; ++i) innovation -= theta_[i] * x_[i];
  for (std::size_t i = 0; i < dim; ++i) theta_[i] += gain_[i] * innovation;

  // P = (P − k (P x)ᵀ) / λ
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      cov_[i * dim + j] =
          (cov_[i * dim + j] - gain_[i] * px_[j]) / params_.lambda;
    }
  }
  ++updates_;
}

void ArPredictor::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");

  // De-seasonalise: ratio against the slot's historical average, when both
  // are daylight values.
  double mu = -1.0;
  if (history_.stored_days() > 0) mu = history_.Mu(next_slot_);
  const bool lit = mu > kNightEpsilonW && boundary_sample > kNightEpsilonW;
  if (lit) {
    const double ratio = Clamp(boundary_sample / mu, 0.0, kMaxRatio);
    // Learn: the features BEFORE pushing this ratio predict it.
    if (ratio_lags_.size() >= static_cast<std::size_t>(params_.order)) {
      RlsUpdate(ratio);
    }
    ratio_lags_.Push(ratio);
  } else {
    // Crossing night resets the dynamics; stale evening ratios do not
    // describe the next morning.
    ratio_lags_.Clear();
  }

  current_day_[next_slot_] = boundary_sample;
  last_sample_ = boundary_sample;
  has_sample_ = true;
  ++next_slot_;
  if (next_slot_ == static_cast<std::size_t>(slots_per_day_)) {
    history_.PushDay(current_day_);
    next_slot_ = 0;
  }
}

double ArPredictor::PredictNext() const {
  SHEP_REQUIRE(has_sample_, "PredictNext before any Observe");
  if (history_.stored_days() == 0 || ratio_lags_.empty()) {
    return last_sample_;  // persistence fallback
  }
  const double mu_next = history_.Mu(next_slot_);
  if (mu_next <= kNightEpsilonW) return last_sample_;
  double ratio_hat = 0.0;
  for (std::size_t i = 0; i < theta_.size(); ++i) {
    ratio_hat += theta_[i] * Feature(i);
  }
  ratio_hat = Clamp(ratio_hat, 0.0, kMaxRatio);
  return mu_next * ratio_hat;
}

bool ArPredictor::Ready() const {
  return history_.full() &&
         updates_ >= static_cast<std::uint64_t>(10 * params_.order);
}

void ArPredictor::Reset() {
  history_.Clear();
  current_day_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
  next_slot_ = 0;
  last_sample_ = 0.0;
  has_sample_ = false;
  ratio_lags_.Clear();
  const auto dim = static_cast<std::size_t>(params_.order + 1);
  theta_.assign(dim, 0.0);
  theta_[1] = 1.0;
  ResetCovariance();
  updates_ = 0;
}

std::string ArPredictor::Name() const {
  std::ostringstream os;
  os << "AR(" << params_.order << ",D=" << params_.days
     << ",lambda=" << params_.lambda << ")";
  return os.str();
}

}  // namespace shep
