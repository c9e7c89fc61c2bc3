// Tests for core/wcma_fixed.hpp — the MCU build of the predictor.
#include "core/wcma_fixed.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/predictor.hpp"
#include "core/wcma.hpp"
#include "solar/synth.hpp"

namespace shep {
namespace {

SlotSeries MakeSeries(const char* site, int n, std::size_t days) {
  SynthOptions opt;
  opt.days = days;
  const auto trace = SynthesizeTrace(SiteByCode(site), opt);
  return SlotSeries(trace, n);
}

TEST(FixedWcma, MatchesDoubleReferenceOnRealTrace) {
  // The fixed-point ablation (README "Synthetic substrate and known
  // deviations"): over in-ROI slots the Q16.16 build
  // must track the double build within 1 % of the trace peak.
  const auto series = MakeSeries("ECSU", 48, 30);
  WcmaParams p;
  p.alpha = 0.7;
  p.days = 5;
  p.slots_k = 3;
  Wcma ref(p, 48);
  FixedWcma fx(p, 48);
  const double peak = series.peak_mean();
  // Skip day 0 (warm-up Φ weighting differs by design; see wcma_fixed.hpp).
  for (std::size_t g = 0; g < series.size(); ++g) {
    ref.Observe(series.boundary(g));
    fx.Observe(series.boundary(g));
    if (g < series.slots_per_day()) continue;
    const double a = ref.PredictNext();
    const double b = fx.PredictNext();
    ASSERT_NEAR(a, b, 0.01 * peak + 1e-3) << "g=" << g;
  }
}

TEST(FixedWcma, CountsDivisionsPerPrediction) {
  // Steady-state predict: 1 μ division + K η divisions + 1 Φ division.
  const auto series = MakeSeries("PFCI", 24, 8);
  WcmaParams p;
  p.alpha = 0.7;
  p.days = 3;
  p.slots_k = 4;
  FixedWcma fx(p, 24);
  // Warm past history fill and into mid-afternoon (so the night guard
  // doesn't skip η divides): observe 5 days then predict at 15:00.
  std::size_t g = 0;
  for (; g < 5u * 24u + 15u; ++g) fx.Observe(series.boundary(g));
  (void)fx.PredictNext();
  EXPECT_EQ(fx.last_predict_ops().div, 1u + 4u + 1u);
}

TEST(FixedWcma, AlphaOnePredictIsNearlyFree) {
  const auto series = MakeSeries("PFCI", 24, 6);
  WcmaParams p;
  p.alpha = 1.0;
  p.days = 3;
  p.slots_k = 4;
  FixedWcma fx(p, 24);
  for (std::size_t g = 0; g < 5u * 24u; ++g) fx.Observe(series.boundary(g));
  (void)fx.PredictNext();
  EXPECT_EQ(fx.last_predict_ops().div, 0u);
  EXPECT_EQ(fx.last_predict_ops().mul, 0u);
}

TEST(FixedWcma, AlphaZeroSkipsBlendMultiplies) {
  const auto series = MakeSeries("PFCI", 24, 6);
  auto ops_for = [&](double alpha) {
    WcmaParams p;
    p.alpha = alpha;
    p.days = 3;
    p.slots_k = 4;
    FixedWcma fx(p, 24);
    for (std::size_t g = 0; g < 5u * 24u + 15u; ++g) {
      fx.Observe(series.boundary(g));
    }
    (void)fx.PredictNext();
    return fx.last_predict_ops();
  };
  const auto at_zero = ops_for(0.0);
  const auto at_mid = ops_for(0.7);
  EXPECT_LT(at_zero.mul, at_mid.mul);
  EXPECT_EQ(at_zero.div, at_mid.div);
}

TEST(FixedWcma, OpsGrowMonotonicallyWithK) {
  // The mechanism behind Table IV: each extra K slot adds one software
  // division to every prediction.
  const auto series = MakeSeries("NPCS", 24, 8);
  std::uint64_t prev_div = 0;
  for (int k = 1; k <= 6; ++k) {
    WcmaParams p;
    p.alpha = 0.7;
    p.days = 3;
    p.slots_k = k;
    FixedWcma fx(p, 24);
    // Observe up to 15:00 so all K <= 6 conditioning slots (9:00-14:00)
    // are daylit and none of the η divisions is skipped by the night
    // guard.
    for (std::size_t g = 0; g < 6u * 24u + 15u; ++g) {
      fx.Observe(series.boundary(g));
    }
    (void)fx.PredictNext();
    const auto divs = fx.last_predict_ops().div;
    if (k > 1) {
      EXPECT_EQ(divs, prev_div + 1) << "K=" << k;
    }
    prev_div = divs;
  }
}

TEST(FixedWcma, ObserveAmortisesDayRollover) {
  const auto series = MakeSeries("NPCS", 24, 8);
  WcmaParams p;
  p.days = 3;
  FixedWcma fx(p, 24);
  for (std::size_t g = 0; g < series.size(); ++g) {
    fx.Observe(series.boundary(g));
  }
  EXPECT_EQ(fx.observe_calls(), series.size());
  // Rollover stores: every slot stores its sample + the recent window; day
  // ends add the matrix row copy.  Just sanity-check the magnitude is a
  // handful of ops per call, not O(D·N).
  const double stores_per_call =
      static_cast<double>(fx.observe_ops().store) /
      static_cast<double>(fx.observe_calls());
  EXPECT_LT(stores_per_call, 8.0);
  EXPECT_GT(stores_per_call, 2.0);
}

TEST(FixedWcma, ReadyAndResetLifecycle) {
  WcmaParams p;
  p.days = 2;
  p.slots_k = 1;
  FixedWcma fx(p, 4);
  for (int i = 0; i < 8; ++i) fx.Observe(0.5);
  EXPECT_TRUE(fx.Ready());
  EXPECT_GT(fx.observe_ops().store, 0u);
  fx.Reset();
  EXPECT_FALSE(fx.Ready());
  EXPECT_EQ(fx.observe_ops().store, 0u);
  EXPECT_EQ(fx.observe_calls(), 0u);
  EXPECT_THROW(fx.PredictNext(), std::invalid_argument);
}

TEST(FixedWcma, PredictionsNonNegative) {
  const auto series = MakeSeries("ORNL", 48, 12);
  WcmaParams p;
  p.alpha = 0.3;
  p.days = 4;
  p.slots_k = 3;
  FixedWcma fx(p, 48);
  for (std::size_t g = 0; g < series.size(); ++g) {
    fx.Observe(series.boundary(g));
    ASSERT_GE(fx.PredictNext(), 0.0) << "g=" << g;
  }
}

TEST(FixedWcma, MapeCloseToDoubleImplementation) {
  // End-to-end: the deployed fixed-point predictor achieves essentially
  // the same MAPE as the evaluation-time double predictor.
  const auto series = MakeSeries("HSU", 48, 60);
  WcmaParams p;
  p.alpha = 0.7;
  p.days = 10;
  p.slots_k = 2;
  Wcma ref(p, 48);
  FixedWcma fx(p, 48);
  RoiFilter filter;
  filter.first_day = 10;
  const auto ref_stats =
      ScorePredictor(ref, series, ErrorTarget::kSlotMean, filter);
  const auto fx_stats =
      ScorePredictor(fx, series, ErrorTarget::kSlotMean, filter);
  ASSERT_TRUE(ref_stats.valid());
  ASSERT_TRUE(fx_stats.valid());
  EXPECT_NEAR(fx_stats.mape, ref_stats.mape, 0.005);
}

TEST(FixedWcma, NameMentionsParameters) {
  WcmaParams p;
  p.alpha = 0.6;
  p.days = 12;
  p.slots_k = 2;
  FixedWcma fx(p, 24);
  EXPECT_NE(fx.Name().find("FixedWCMA"), std::string::npos);
  EXPECT_NE(fx.Name().find("12"), std::string::npos);
}

}  // namespace
}  // namespace shep
