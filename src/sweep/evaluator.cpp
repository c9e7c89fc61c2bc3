#include "sweep/evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "common/mathutil.hpp"

namespace shep {

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
  SHEP_REQUIRE(slots_k >= 1, "K must be >= 1");
  SHEP_REQUIRE(slots_k < slots_per_day(), "K must be < N");
  const std::size_t total = points();
  SHEP_CHECK(d.eta.size() == total, "DSeries does not match context");
  std::vector<double> q(total);
  // θ_i and Σθ once per call, not per slot.  The Φ window is always full:
  // μ is the persistence sentinel for g < N−1, and K < N.
  const auto k = static_cast<std::size_t>(slots_k);
  std::vector<double> theta(k);
  double den = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    theta[i] = weighting == WcmaWeighting::kRamp
                   ? static_cast<double>(i + 1) / static_cast<double>(k)
                   : 1.0;
    den += theta[i];
  }
  for (std::size_t g = 0; g < total; ++g) {
    if (d.mu_pred[g] < 0.0) {
      q[g] = series_.boundary(g);  // persistence fallback on day 0
      continue;
    }
    SHEP_CHECK(g + 1 >= k, "Phi window must be full");
    // Φ over the K η values ending at g.
    const double* eta = d.eta.data() + (g + 1 - k);
    double num = 0.0;
    for (std::size_t i = 0; i < k; ++i) num += theta[i] * eta[i];
    q[g] = d.mu_pred[g] * (num / den);
  }
  return q;
}

std::vector<SweepContext::ConfigScore> SweepContext::ScoreAlphas(
    const std::vector<double>& q, std::span<const double> alphas,
    const RoiFilter& filter) const {
  for (const double alpha : alphas) {
    SHEP_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0,1]");
  }
  const std::size_t total = points();
  SHEP_CHECK(q.size() == total, "Q series does not match context");
  const std::size_t n = series_.slots_per_day();
  const std::size_t n_a = alphas.size();

  // α in pairs, side by side, so each pair's update is one SIMD lane
  // pair; an odd count leaves a padding lane that is computed and dropped.
  // Every α's sums grow in ascending g, exactly as in a one-α pass.
  struct AlphaPair {
    double alpha[2] = {};
    double one_minus[2] = {};  ///< 1 − α
    double mean[4][2] = {};    ///< APE, |e|, e², e against the slot mean
    double bnd[4][2] = {};     ///< the same against the next boundary
  };
  std::vector<AlphaPair> pairs((n_a + 1) / 2);
  for (std::size_t a = 0; a < n_a; ++a) {
    pairs[a / 2].alpha[a % 2] = alphas[a];
    pairs[a / 2].one_minus[a % 2] = 1.0 - alphas[a];
  }
  const auto accumulate = [](double ref, const double (&pred)[2],
                             double (&sums)[4][2]) {
    for (int j = 0; j < 2; ++j) {
      const double err = ref - pred[j];
      sums[0][j] += std::fabs(err) / ref;
      sums[1][j] += std::fabs(err);
      sums[2][j] += err * err;
      sums[3][j] += err;
    }
  };

  // The counts do not depend on α, so they are kept once.
  std::size_t m_count = 0;
  std::size_t b_count = 0;
  for (std::size_t day = 0, g = 0; g < total; ++day) {
    for (const std::size_t day_end = std::min(total, g + n); g < day_end;
         ++g) {
      const double ref_mean = series_.mean(g);
      const double ref_bnd = series_.boundary(g + 1);
      const bool in_mean =
          filter.Includes(day, ref_mean, peak_mean_) && ref_mean > 0.0;
      const bool in_bnd =
          filter.Includes(day, ref_bnd, peak_boundary_) && ref_bnd > 0.0;
      if (!in_mean && !in_bnd) continue;
      m_count += in_mean ? 1 : 0;
      b_count += in_bnd ? 1 : 0;
      const double p = series_.boundary(g);
      for (AlphaPair& pair : pairs) {
        double pred[2];
        for (int j = 0; j < 2; ++j) {
          pred[j] = pair.alpha[j] * p + pair.one_minus[j] * q[g];
        }
        if (in_mean) accumulate(ref_mean, pred, pair.mean);
        if (in_bnd) accumulate(ref_bnd, pred, pair.bnd);
      }
    }
  }

  const auto finish = [](const double (&sums)[4][2], std::size_t count,
                         std::size_t j) {
    ErrorStats stats;
    if (count > 0) {
      const double c = static_cast<double>(count);
      stats.mape = sums[0][j] / c;
      stats.mae = sums[1][j] / c;
      stats.rmse = std::sqrt(sums[2][j] / c);
      stats.mbe = sums[3][j] / c;
      stats.count = count;
    }
    return stats;
  };
  std::vector<ConfigScore> scores(n_a);
  for (std::size_t a = 0; a < n_a; ++a) {
    const AlphaPair& pair = pairs[a / 2];
    scores[a].mean = finish(pair.mean, m_count, a % 2);
    scores[a].boundary = finish(pair.bnd, b_count, a % 2);
  }
  return scores;
}

SweepContext::ConfigScore SweepContext::Score(const std::vector<double>& q,
                                              double alpha,
                                              const RoiFilter& filter) const {
  return ScoreAlphas(q, std::span<const double>(&alpha, 1), filter).front();
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
