#include "sweep/evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "common/mathutil.hpp"

namespace shep {

namespace {

// θ_i of a K-slot Φ window (i/K on the ramp, 1 when uniform) into `theta`;
// returns Σθ.  Built once per call, never per slot.
double PhiWeights(int slots_k, int slots_per_day, WcmaWeighting weighting,
                  std::vector<double>& theta) {
  SHEP_REQUIRE(slots_k >= 1, "K must be >= 1");
  SHEP_REQUIRE(slots_k < slots_per_day, "K must be < N");
  const auto k = static_cast<std::size_t>(slots_k);
  theta.resize(k);
  double den = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    theta[i] = weighting == WcmaWeighting::kRamp
                   ? static_cast<double>(i + 1) / static_cast<double>(k)
                   : 1.0;
    den += theta[i];
  }
  return den;
}

// Q(g) = μ_D(g+1)·Φ_K(g), Φ over the K η values ending at g; where μ is
// the persistence sentinel, Q(g) = ẽ(g) = p.  BuildQ and ScoreD both
// compute Q here, so every Q has one expression.
inline double QAt(const SweepContext::DSeries& d, std::size_t g, double p,
                  std::span<const double> theta, double den) {
  const double mu = d.mu_pred[g];
  if (mu < 0.0) return p;  // persistence fallback on day 0
  // The window is always full: μ is the sentinel for g < N−1, and K < N.
  const std::size_t k = theta.size();
  SHEP_CHECK(g + 1 >= k, "Phi window must be full");
  const double* eta = d.eta.data() + (g + 1 - k);
  double num = 0.0;
  for (std::size_t i = 0; i < k; ++i) num += theta[i] * eta[i];
  return mu * (num / den);
}

// ê = α·P + (1−α)·Q of every (design, α) pair into `pred`, design-major.
// No two of the arrays overlap; `__restrict` here and in AddErrors says
// so, which lets each loop run two predictions per SIMD instruction
// without a run-time overlap test.
inline void Predict(double p, const double* __restrict q, std::size_t n_q,
                    const double* __restrict alphas, std::size_t n_a,
                    double* __restrict pred) {
  for (std::size_t i_q = 0; i_q < n_q; ++i_q) {
    for (std::size_t a = 0; a < n_a; ++a) {
      pred[i_q * n_a + a] = alphas[a] * p + (1.0 - alphas[a]) * q[i_q];
    }
  }
}

// ROI slots per AddErrors call: each sum is loaded and stored once per
// block.  4 ran the paper sweep faster than 1 and no slower than 8.
constexpr std::size_t kBlock = 4;

// The one error update: adds the APE (|e| / ref, a true divide), |e|, e²
// and e of n predictions at kBlock slots (pred holds kBlock rows of n)
// to `sums`, four rows of n, in slot order.  A slot outside this
// reference's ROI carries mask 0 and ref 1, so each of its terms is ±0.
// Adding ±0 leaves a sum's bits unchanged, because a sum that starts at
// +0 never becomes −0.
inline void AddErrors(const double (&ref)[kBlock],
                      const double (&mask)[kBlock],
                      const double* __restrict pred, std::size_t n,
                      double* __restrict sums) {
  for (std::size_t j = 0; j < n; ++j) {
    double ape = sums[j];
    double abs_err = sums[n + j];
    double sq_err = sums[2 * n + j];
    double bias = sums[3 * n + j];
    for (std::size_t s = 0; s < kBlock; ++s) {
      const double err = (ref[s] - pred[s * n + j]) * mask[s];
      ape += std::fabs(err) / ref[s];
      abs_err += std::fabs(err);
      sq_err += err * err;
      bias += err;
    }
    sums[j] = ape;
    sums[n + j] = abs_err;
    sums[2 * n + j] = sq_err;
    sums[3 * n + j] = bias;
  }
}

ErrorStats FinishErrors(const double* sums, std::size_t n, std::size_t j,
                        std::size_t count) {
  ErrorStats stats;
  if (count > 0) {
    const double c = static_cast<double>(count);
    stats.mape = sums[j] / c;
    stats.mae = sums[n + j] / c;
    stats.rmse = std::sqrt(sums[2 * n + j] / c);
    stats.mbe = sums[3 * n + j] / c;
    stats.count = count;
  }
  return stats;
}

}  // namespace

SweepContext::SweepContext(const PowerTrace& trace, int slots_per_day)
    : dataset_(trace.name()), series_(trace, slots_per_day) {
  SHEP_REQUIRE(series_.days() >= 2, "sweep needs at least two days");
  const std::size_t n = series_.slots_per_day();
  const std::size_t days = series_.days();
  cum_.assign((days + 1) * n, 0.0);
  for (std::size_t d = 0; d < days; ++d) {
    for (std::size_t j = 0; j < n; ++j) {
      cum_[(d + 1) * n + j] = cum_[d * n + j] + series_.boundary(d * n + j);
    }
  }
  peak_mean_ = series_.peak_mean();
  peak_boundary_ = MaxValue(series_.boundaries());
}

double SweepContext::MuBefore(std::size_t day, std::size_t slot,
                              std::size_t window) const {
  SHEP_DCHECK(window >= 1 && window <= day, "mu window out of range");
  const std::size_t n = series_.slots_per_day();
  const double sum = cum_[day * n + slot] - cum_[(day - window) * n + slot];
  return sum / static_cast<double>(window);
}

SweepContext::DSeries SweepContext::BuildD(int days_d) const {
  SHEP_REQUIRE(days_d >= 1, "D must be >= 1");
  const auto dcap = static_cast<std::size_t>(days_d);
  const std::size_t n = series_.slots_per_day();
  const std::size_t total = points();
  DSeries out;
  out.days_d = days_d;
  out.mu_pred.resize(total);
  out.eta.resize(total);
  for (std::size_t g = 0; g < total; ++g) {
    const std::size_t day = g / n;
    const std::size_t slot = g % n;
    const double sample = series_.boundary(g);

    // η(g): today's sample vs the historical average current at observe
    // time (days strictly before `day`, capped at D).
    if (day == 0) {
      out.eta[g] = 1.0;
    } else {
      const double mu = MuBefore(day, slot, std::min(day, dcap));
      out.eta[g] = mu > kNightEpsilonW ? sample / mu : 1.0;
    }

    // μ_D of the predicted slot g+1 (after the Observe(g) rollover, so a
    // completed day d is already part of the history when predicting day
    // d+1's first slot).
    const std::size_t pday = (g + 1) / n;
    const std::size_t pslot = (g + 1) % n;
    if (pday == 0) {
      out.mu_pred[g] = -1.0;  // persistence-fallback sentinel
    } else {
      out.mu_pred[g] = MuBefore(pday, pslot, std::min(pday, dcap));
    }
  }
  return out;
}

std::vector<double> SweepContext::BuildQ(const DSeries& d, int slots_k,
                                         WcmaWeighting weighting) const {
  std::vector<double> theta;
  const double den = PhiWeights(slots_k, slots_per_day(), weighting, theta);
  const std::size_t total = points();
  SHEP_CHECK(d.eta.size() == total, "DSeries does not match context");
  std::vector<double> q(total);
  for (std::size_t g = 0; g < total; ++g) {
    q[g] = QAt(d, g, series_.boundary(g), theta, den);
  }
  return q;
}

std::vector<SweepContext::RoiSlot> SweepContext::BuildRoi(
    const RoiFilter& filter) const {
  const std::size_t n = series_.slots_per_day();
  std::vector<RoiSlot> roi;
  for (std::size_t g = 0; g < points(); ++g) {
    const double ref_mean = series_.mean(g);
    const double ref_bnd = series_.boundary(g + 1);
    const bool in_mean =
        filter.Includes(g / n, ref_mean, peak_mean_) && ref_mean > 0.0;
    const bool in_bnd =
        filter.Includes(g / n, ref_bnd, peak_boundary_) && ref_bnd > 0.0;
    if (in_mean || in_bnd) roi.push_back({g, in_mean, in_bnd});
  }
  return roi;
}

template <typename FillQ>
std::vector<SweepContext::ConfigScore> SweepContext::ScoreRoi(
    std::span<const RoiSlot> roi, std::size_t n_q,
    std::span<const double> alphas, FillQ fill_q) const {
  const std::size_t n_a = alphas.size();
  const std::size_t n = n_q * n_a;
  // Q of each design, kBlock rows of each (design, α) pair's prediction,
  // then the four sums of each pair against each reference.  The ROI is
  // walked kBlock slots at a time, so each sum is loaded and stored once
  // per block.
  std::vector<double> scratch(n_q + (kBlock + 8) * n, 0.0);
  double* const q = scratch.data();
  double* const pred = q + n_q;
  double* const mean_sums = pred + kBlock * n;
  double* const bnd_sums = mean_sums + 4 * n;
  std::size_t m_count = 0;
  std::size_t b_count = 0;
  for (std::size_t s0 = 0; s0 < roi.size(); s0 += kBlock) {
    double ref_mean[kBlock];
    double mask_mean[kBlock];
    double ref_bnd[kBlock];
    double mask_bnd[kBlock];
    for (std::size_t s = 0; s < kBlock; ++s) {
      // Past the last ROI slot, pad with slot 0 scored against neither.
      const RoiSlot slot = s0 + s < roi.size() ? roi[s0 + s] : RoiSlot{};
      const double p = series_.boundary(slot.g);
      fill_q(slot.g, p, q);
      Predict(p, q, n_q, alphas.data(), n_a, pred + s * n);
      ref_mean[s] = slot.mean ? series_.mean(slot.g) : 1.0;
      mask_mean[s] = slot.mean ? 1.0 : 0.0;
      ref_bnd[s] = slot.boundary ? series_.boundary(slot.g + 1) : 1.0;
      mask_bnd[s] = slot.boundary ? 1.0 : 0.0;
      m_count += slot.mean ? 1 : 0;
      b_count += slot.boundary ? 1 : 0;
    }
    AddErrors(ref_mean, mask_mean, pred, n, mean_sums);
    AddErrors(ref_bnd, mask_bnd, pred, n, bnd_sums);
  }

  std::vector<ConfigScore> scores(n);
  for (std::size_t j = 0; j < n; ++j) {
    scores[j].mean = FinishErrors(mean_sums, n, j, m_count);
    scores[j].boundary = FinishErrors(bnd_sums, n, j, b_count);
  }
  return scores;
}

SweepContext::ConfigScore SweepContext::Score(const std::vector<double>& q,
                                              double alpha,
                                              const RoiFilter& filter) const {
  SHEP_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0,1]");
  SHEP_CHECK(q.size() == points(), "Q series does not match context");
  const auto fill_q = [&q](std::size_t g, double, double* out) {
    out[0] = q[g];
  };
  return ScoreRoi(BuildRoi(filter), 1, std::span<const double>(&alpha, 1),
                  fill_q)
      .front();
}

SweepContext::GridScorer::GridScorer(const SweepContext& context,
                                     std::span<const int> ks,
                                     std::span<const double> alphas,
                                     const RoiFilter& filter,
                                     WcmaWeighting weighting)
    : context_(context), alphas_(alphas.begin(), alphas.end()) {
  for (const double alpha : alphas_) {
    SHEP_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0,1]");
  }
  theta_.resize(ks.size());
  for (std::size_t i_k = 0; i_k < ks.size(); ++i_k) {
    den_.push_back(PhiWeights(ks[i_k], context.slots_per_day(), weighting,
                              theta_[i_k]));
  }
  roi_ = context.BuildRoi(filter);
}

std::vector<SweepContext::ConfigScore> SweepContext::GridScorer::ScoreD(
    const DSeries& d) const {
  SHEP_CHECK(d.eta.size() == context_.points(),
             "DSeries does not match context");
  const auto fill_q = [&](std::size_t g, double p, double* q) {
    for (std::size_t i_k = 0; i_k < theta_.size(); ++i_k) {
      q[i_k] = QAt(d, g, p, theta_[i_k], den_[i_k]);
    }
  };
  return context_.ScoreRoi(roi_, theta_.size(), alphas_, fill_q);
}

SweepContext::ConfigScore SweepContext::EvaluateConfig(
    const WcmaParams& params, const RoiFilter& filter,
    WcmaWeighting weighting) const {
  params.Validate();
  const DSeries d = BuildD(params.days);
  const auto q = BuildQ(d, params.slots_k, weighting);
  return Score(q, params.alpha, filter);
}

}  // namespace shep
