// Tests for sweep/evaluator.hpp — the batch evaluator must be EXACTLY the
// streaming predictor, just faster.
#include "sweep/evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/predictor.hpp"
#include "core/wcma.hpp"
#include "solar/synth.hpp"

namespace shep {
namespace {

PowerTrace MakeTrace(const char* site, std::size_t days) {
  SynthOptions opt;
  opt.days = days;
  return SynthesizeTrace(SiteByCode(site), opt);
}

TEST(SweepContext, GeometryAndPeaks) {
  const auto trace = MakeTrace("ECSU", 10);
  const SweepContext ctx(trace, 48);
  EXPECT_EQ(ctx.dataset(), "ECSU");
  EXPECT_EQ(ctx.slots_per_day(), 48);
  EXPECT_EQ(ctx.points(), 10u * 48u - 1u);
  EXPECT_GT(ctx.peak_mean(), 0.0);
  EXPECT_GT(ctx.peak_boundary(), 0.0);
  EXPECT_DOUBLE_EQ(ctx.peak_mean(), ctx.series().peak_mean());
}

TEST(SweepContext, MuBeforeMatchesDirectAverage) {
  const auto trace = MakeTrace("NPCS", 8);
  const SweepContext ctx(trace, 24);
  const auto& s = ctx.series();
  // μ over 3 days before day 5, slot 12.
  const double expected = (s.boundary(2 * 24 + 12) + s.boundary(3 * 24 + 12) +
                           s.boundary(4 * 24 + 12)) /
                          3.0;
  EXPECT_NEAR(ctx.MuBefore(5, 12, 3), expected, 1e-12);
}

// The central equivalence property: for any (α, D, K), the evaluator's
// MAPE/MAPE′ equal those of the streaming Wcma run through RunPredictor.
class EvaluatorEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, int, int, int>> {};

TEST_P(EvaluatorEquivalenceTest, MatchesStreamingPredictor) {
  const auto [alpha, days_d, slots_k, n_slots] = GetParam();
  const auto trace = MakeTrace("SPMD", 30);
  const SweepContext ctx(trace, n_slots);

  WcmaParams p;
  p.alpha = alpha;
  p.days = days_d;
  p.slots_k = slots_k;

  RoiFilter filter;  // paper defaults: day >= 20, >= 10 % peak

  const auto batch = ctx.EvaluateConfig(p, filter);

  Wcma streaming(p, n_slots);
  const auto mean_stats = ScorePredictor(streaming, ctx.series(),
                                         ErrorTarget::kSlotMean, filter);
  const auto boundary_stats = ScorePredictor(
      streaming, ctx.series(), ErrorTarget::kBoundarySample, filter);

  ASSERT_EQ(batch.mean.count, mean_stats.count);
  ASSERT_EQ(batch.boundary.count, boundary_stats.count);
  EXPECT_NEAR(batch.mean.mape, mean_stats.mape, 1e-12);
  EXPECT_NEAR(batch.boundary.mape, boundary_stats.mape, 1e-12);
  EXPECT_NEAR(batch.mean.rmse, mean_stats.rmse, 1e-12);
  EXPECT_NEAR(batch.mean.mae, mean_stats.mae, 1e-12);
  EXPECT_NEAR(batch.mean.mbe, mean_stats.mbe, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EvaluatorEquivalenceTest,
    ::testing::Values(std::make_tuple(0.0, 2, 1, 24),
                      std::make_tuple(0.7, 20, 3, 48),
                      std::make_tuple(1.0, 5, 2, 48),
                      std::make_tuple(0.3, 10, 6, 24),
                      std::make_tuple(0.5, 20, 1, 96),
                      std::make_tuple(0.9, 3, 4, 24)));

TEST(SweepContext, AlphaDecompositionIsExact) {
  // ê = α·P + (1−α)·Q means Score(q, α) at α = 0 and 1 bracket any blend.
  const auto trace = MakeTrace("HSU", 25);
  const SweepContext ctx(trace, 24);
  const auto d = ctx.BuildD(5);
  const auto q = ctx.BuildQ(d, 3);

  WcmaParams p0;
  p0.alpha = 0.0;
  p0.days = 5;
  p0.slots_k = 3;
  const auto direct = ctx.EvaluateConfig(p0);
  const auto via_q = ctx.Score(q, 0.0);
  EXPECT_NEAR(direct.mean.mape, via_q.mean.mape, 1e-12);
}

TEST(SweepContext, DegenerateGridGivesZeroMapeAtAlphaOne) {
  // N=288 on a 5-minute site: M=1, mean == boundary, α=1 predicts the value
  // the error is scored against — the paper's "0†" entries.
  const auto trace = MakeTrace("SPMD", 25);  // 5-minute site
  const SweepContext ctx(trace, 288);
  EXPECT_TRUE(ctx.series().grid().degenerate());
  WcmaParams p;
  p.alpha = 1.0;
  p.days = 2;
  p.slots_k = 1;
  const auto score = ctx.EvaluateConfig(p);
  ASSERT_TRUE(score.mean.valid());
  EXPECT_DOUBLE_EQ(score.mean.mape, 0.0);
}

TEST(SweepContext, ValidatesArguments) {
  const auto trace = MakeTrace("NPCS", 5);
  const SweepContext ctx(trace, 24);
  EXPECT_THROW(ctx.BuildD(0), std::invalid_argument);
  const auto d = ctx.BuildD(2);
  EXPECT_THROW(ctx.BuildQ(d, 0), std::invalid_argument);
  EXPECT_THROW(ctx.BuildQ(d, 24), std::invalid_argument);
  const auto q = ctx.BuildQ(d, 2);
  EXPECT_THROW(ctx.Score(q, 1.5), std::invalid_argument);
  // One K or α out of range anywhere in a grid rejects the whole scorer.
  using GridScorer = SweepContext::GridScorer;
  const std::vector<int> ks = {2};
  EXPECT_THROW(GridScorer(ctx, ks, std::vector<double>{0.0, 0.5, 1.5}),
               std::invalid_argument);
  EXPECT_THROW(GridScorer(ctx, ks, std::vector<double>{-0.1, 1.0}),
               std::invalid_argument);
  const std::vector<double> alphas = {0.5};
  EXPECT_THROW(GridScorer(ctx, std::vector<int>{2, 0}, alphas),
               std::invalid_argument);
  EXPECT_THROW(GridScorer(ctx, std::vector<int>{1, 24}, alphas),
               std::invalid_argument);
}

// BuildQ as it was written with its weights recomputed for every slot; the
// reference the once-per-call weight table must match bit for bit.
std::vector<double> PerSlotWeightsBuildQ(const SweepContext& ctx,
                                         const SweepContext::DSeries& d,
                                         int slots_k,
                                         WcmaWeighting weighting) {
  const std::size_t total = ctx.points();
  std::vector<double> q(total);
  for (std::size_t g = 0; g < total; ++g) {
    if (d.mu_pred[g] < 0.0) {
      q[g] = ctx.series().boundary(g);
      continue;
    }
    const std::size_t k_avail =
        std::min<std::size_t>(static_cast<std::size_t>(slots_k), g + 1);
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < k_avail; ++i) {
      const double theta =
          weighting == WcmaWeighting::kRamp
              ? static_cast<double>(i + 1) / static_cast<double>(k_avail)
              : 1.0;
      num += theta * d.eta[g - k_avail + 1 + i];
      den += theta;
    }
    q[g] = d.mu_pred[g] * (num / den);
  }
  return q;
}

TEST(SweepContext, BuildQWeightTableIsBitIdenticalToPerSlotWeights) {
  const auto trace = MakeTrace("ORNL", 12);
  const SweepContext ctx(trace, 48);
  const auto d = ctx.BuildD(5);
  for (const auto weighting : {WcmaWeighting::kRamp, WcmaWeighting::kUniform}) {
    for (int k = 1; k <= 6; ++k) {
      const auto q = ctx.BuildQ(d, k, weighting);
      const auto expected = PerSlotWeightsBuildQ(ctx, d, k, weighting);
      ASSERT_EQ(q.size(), expected.size());
      EXPECT_EQ(std::memcmp(q.data(), expected.data(),
                            q.size() * sizeof(double)),
                0)
          << "K=" << k;
    }
  }
}

TEST(SweepContext, EtaIsNeutralAtNightAndOnDayZero) {
  const auto trace = MakeTrace("PFCI", 5);
  const SweepContext ctx(trace, 24);
  const auto d = ctx.BuildD(3);
  // Day 0: all η = 1 by definition.
  for (std::size_t g = 0; g < 24; ++g) EXPECT_DOUBLE_EQ(d.eta[g], 1.0);
  // Midnight slots on later days: μ ≈ 0 -> η = 1 (night guard).
  EXPECT_DOUBLE_EQ(d.eta[3 * 24], 1.0);
}

TEST(SweepContext, MuPredSentinelOnlyOnDayZero) {
  const auto trace = MakeTrace("PFCI", 4);
  const SweepContext ctx(trace, 24);
  const auto d = ctx.BuildD(2);
  for (std::size_t g = 0; g < ctx.points(); ++g) {
    if ((g + 1) / 24 == 0) {
      EXPECT_LT(d.mu_pred[g], 0.0) << "g=" << g;
    } else {
      EXPECT_GE(d.mu_pred[g], 0.0) << "g=" << g;
    }
  }
}

}  // namespace
}  // namespace shep
