// Tests for core/ar.hpp — the RLS-fitted AR(p)-on-ratios predictor.
#include "core/ar.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/ewma.hpp"
#include "core/predictor.hpp"
#include "core/wcma.hpp"
#include "solar/synth.hpp"

namespace shep {
namespace {

SlotSeries MakeSeries(const char* site, std::size_t days) {
  SynthOptions opt;
  opt.days = days;
  const auto trace = SynthesizeTrace(SiteByCode(site), opt);
  return SlotSeries(trace, 48);
}

TEST(ArParams, Validation) {
  ArParams p;
  EXPECT_NO_THROW(p.Validate());
  p.order = 0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = ArParams{};
  p.order = 17;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = ArParams{};
  p.lambda = 0.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = ArParams{};
  p.delta = 0.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(ArPredictor, LifecycleAndFallbacks) {
  ArPredictor ar(ArParams{}, 48);
  EXPECT_THROW(ar.PredictNext(), std::invalid_argument);
  EXPECT_FALSE(ar.Ready());
  ar.Observe(0.5);
  // No history yet -> persistence.
  EXPECT_DOUBLE_EQ(ar.PredictNext(), 0.5);
  ar.Reset();
  EXPECT_THROW(ar.PredictNext(), std::invalid_argument);
  EXPECT_EQ(ar.updates(), 0u);
}

TEST(ArPredictor, RejectsNegativeSample) {
  ArPredictor ar(ArParams{}, 48);
  EXPECT_THROW(ar.Observe(-0.1), std::invalid_argument);
}

TEST(ArPredictor, RecoversKnownArProcess) {
  // Feed a day-periodic envelope modulated by a known AR(1) ratio process
  // r(t) = 0.6 r(t-1) + 0.4 + noise; after enough RLS updates the learned
  // lag-1 coefficient must approach 0.6 and the bias 0.4.
  const int n = 24;
  ArParams p;
  p.order = 1;
  p.days = 3;
  ArPredictor ar(p, n);
  Rng rng(77);
  double r = 1.0;
  // Flat envelope of 1 W during "day" slots 6..18, 0 at night.
  for (int day = 0; day < 60; ++day) {
    for (int slot = 0; slot < n; ++slot) {
      double sample = 0.0;
      if (slot >= 6 && slot < 18) {
        r = 0.6 * r + 0.4 + rng.Gaussian(0.0, 0.02);
        sample = r;  // envelope == 1 after warm-up, so ratio == r
      } else {
        r = 1.0;
      }
      ar.Observe(sample);
    }
  }
  ASSERT_GE(ar.coefficients().size(), 2u);
  EXPECT_NEAR(ar.coefficients()[1], 0.6, 0.1);  // lag-1
  EXPECT_NEAR(ar.coefficients()[0], 0.4, 0.1);  // bias
  EXPECT_TRUE(ar.Ready());
}

TEST(ArPredictor, PredictionsFiniteAndNonNegativeOnRealTrace) {
  const auto series = MakeSeries("ORNL", 30);
  ArPredictor ar(ArParams{}, 48);
  for (std::size_t g = 0; g < series.size(); ++g) {
    ar.Observe(series.boundary(g));
    const double pred = ar.PredictNext();
    ASSERT_TRUE(std::isfinite(pred)) << g;
    ASSERT_GE(pred, 0.0) << g;
  }
}

TEST(ArPredictor, DeterministicAcrossRuns) {
  const auto series = MakeSeries("HSU", 25);
  ArPredictor a(ArParams{}, 48), b(ArParams{}, 48);
  const auto ra = RunPredictor(a, series);
  const auto rb = RunPredictor(b, series);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_DOUBLE_EQ(ra[i].predicted, rb[i].predicted);
  }
}

TEST(ArPredictor, CompetitiveHierarchyOnSolarData) {
  // The literature's finding, reproduced: the de-seasonalised AR baseline
  // beats the day-lagging EWMA comfortably but does not beat a tuned WCMA
  // (otherwise the paper would have evaluated AR instead).
  const auto series = MakeSeries("SPMD", 90);
  ArPredictor ar(ArParams{}, 48);
  Ewma ewma(0.5, 48);
  WcmaParams wp;
  wp.alpha = 0.7;
  wp.days = 10;
  wp.slots_k = 2;
  Wcma wcma(wp, 48);

  const double ar_mape = ScorePredictor(ar, series).mape;
  const double ewma_mape = ScorePredictor(ewma, series).mape;
  const double wcma_mape = ScorePredictor(wcma, series).mape;
  EXPECT_LT(ar_mape, ewma_mape);
  EXPECT_LT(wcma_mape, ar_mape + 0.02);  // WCMA at least matches AR
}

TEST(ArPredictor, EveryRlsUpdateShrinksTheCovarianceItStartsFrom) {
  // On SPMD at N = 48 with λ = 0.995, rounding makes P indefinite after
  // about 6 000 updates, and the RLS denominator λ + xᵀPx then turns
  // non-positive.  The safeguard restarts P from δI whenever it does, so
  // every update subtracts the rank-one term (Px)(Px)ᵀ/denom >= 0 before the
  // 1/λ forgetting: on the diagonal, λ·P_after never exceeds the P the
  // update started from — the previous P, or δI after a reset.
  SynthOptions opt;
  opt.days = 1100;
  const SlotSeries series(SynthesizeTrace(SiteByCode("SPMD"), opt), 48);
  ArParams p;
  p.order = 3;
  p.lambda = 0.995;
  ArPredictor ar(p, 48);
  const std::size_t dim = 4;
  std::vector<double> before = ar.covariance();
  std::size_t resets = 0;
  for (std::size_t g = 0; g < series.size(); ++g) {
    const std::uint64_t updates = ar.updates();
    ar.Observe(series.boundary(g));
    if (ar.updates() == updates) continue;
    const std::vector<double>& after = ar.covariance();
    bool from_previous = true;
    bool from_prior = true;
    for (std::size_t i = 0; i < dim; ++i) {
      const double start = before[i * dim + i];
      const double shrunk = p.lambda * after[i * dim + i];
      from_previous = from_previous && shrunk <= start + 1e-9 * std::abs(start);
      from_prior = from_prior && shrunk <= p.delta * (1.0 + 1e-9);
    }
    ASSERT_TRUE(from_previous || from_prior) << "update " << ar.updates();
    if (!from_previous) ++resets;
    before = after;
  }
  EXPECT_GE(ar.updates(), 20000u);
  EXPECT_GE(resets, 1u) << "the trace must reach the indefinite covariance";
}

TEST(ArPredictor, NameDescribesModel) {
  ArParams p;
  p.order = 4;
  ArPredictor ar(p, 48);
  EXPECT_NE(ar.Name().find("AR(4"), std::string::npos);
}

// Property: RLS stays numerically sane across orders and forgetting
// factors on real data (covariance never poisons the predictions).
class ArStabilityTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(ArStabilityTest, StableOnVolatileTrace) {
  const auto [order, lambda] = GetParam();
  const auto series = MakeSeries("ORNL", 20);
  ArParams p;
  p.order = order;
  p.lambda = lambda;
  ArPredictor ar(p, 48);
  for (std::size_t g = 0; g < series.size(); ++g) {
    ar.Observe(series.boundary(g));
    const double pred = ar.PredictNext();
    ASSERT_TRUE(std::isfinite(pred));
    ASSERT_LE(pred, 10.0);  // ratios are clamped, envelope is ~1.5 W
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndForgetting, ArStabilityTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(0.95, 0.99, 1.0)));

}  // namespace
}  // namespace shep
