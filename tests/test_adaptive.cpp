// Tests for core/adaptive.hpp — the realizable dynamic (α, K) selector.
#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/predictor.hpp"
#include "core/wcma.hpp"
#include "solar/synth.hpp"
#include "sweep/dynamic.hpp"
#include "sweep/sweep.hpp"

namespace shep {
namespace {

SlotSeries MakeSeries(const char* site, std::size_t days, int n = 48) {
  SynthOptions opt;
  opt.days = days;
  const auto trace = SynthesizeTrace(SiteByCode(site), opt);
  return SlotSeries(trace, n);
}

TEST(AdaptiveWcmaParams, Validation) {
  AdaptiveWcmaParams p;
  EXPECT_NO_THROW(p.Validate());
  p.alphas.clear();
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = AdaptiveWcmaParams{};
  p.alphas.push_back(1.5);
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = AdaptiveWcmaParams{};
  p.ks.push_back(0);
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = AdaptiveWcmaParams{};
  p.discount = 1.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = AdaptiveWcmaParams{};
  p.days = 0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(AdaptiveWcma, RejectsCandidateKNotBelowN) {
  AdaptiveWcmaParams p;
  p.ks = {1, 12};
  EXPECT_THROW(AdaptiveWcma(p, 12), std::invalid_argument);
}

TEST(AdaptiveWcma, SingleCandidateEqualsPlainWcma) {
  // With a one-entry bank there is nothing to select; the adaptive
  // predictor must be the static predictor, prediction for prediction and
  // bit for bit, since both condition through the one WcmaWindow::Phi.
  const auto series = MakeSeries("ECSU", 30);
  AdaptiveWcmaParams ap;
  ap.alphas = {0.7};
  ap.ks = {2};
  ap.days = 5;
  AdaptiveWcma adaptive(ap, 48);
  WcmaParams wp;
  wp.alpha = 0.7;
  wp.days = 5;
  wp.slots_k = 2;
  Wcma plain(wp, 48);
  const auto a = RunPredictor(adaptive, series);
  const auto b = RunPredictor(plain, series);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].predicted, b[i].predicted) << "i=" << i;
  }
}

TEST(AdaptiveWcma, LifecycleAndDiagnostics) {
  AdaptiveWcmaParams p;
  p.days = 2;
  AdaptiveWcma a(p, 24);
  EXPECT_THROW(a.PredictNext(), std::invalid_argument);
  EXPECT_FALSE(a.Ready());
  const auto series = MakeSeries("PFCI", 4, 24);
  for (std::size_t g = 0; g < series.size(); ++g) {
    a.Observe(series.boundary(g));
  }
  EXPECT_TRUE(a.Ready());
  EXPECT_LT(a.selected_candidate(), p.candidates());
  EXPECT_GE(a.selected_alpha(), 0.0);
  EXPECT_GE(a.selected_k(), 1);
  const auto& counts = a.selection_counts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
            series.size());
  a.Reset();
  EXPECT_FALSE(a.Ready());
  EXPECT_THROW(a.PredictNext(), std::invalid_argument);
  EXPECT_EQ(std::accumulate(a.selection_counts().begin(),
                            a.selection_counts().end(), std::uint64_t{0}),
            0u);
}

TEST(AdaptiveWcma, ActuallyAdaptsOnVolatileData) {
  // On a mixed-weather site the loss ranking changes over time, so more
  // than one candidate must get selected.
  const auto series = MakeSeries("SPMD", 60);
  AdaptiveWcma a(AdaptiveWcmaParams{}, 48);
  for (std::size_t g = 0; g < series.size(); ++g) {
    a.Observe(series.boundary(g));
  }
  int used = 0;
  for (auto c : a.selection_counts()) {
    if (c > 0) ++used;
  }
  EXPECT_GE(used, 3);
}

TEST(AdaptiveWcma, DeterministicAcrossRuns) {
  const auto series = MakeSeries("HSU", 30);
  AdaptiveWcma a(AdaptiveWcmaParams{}, 48), b(AdaptiveWcmaParams{}, 48);
  const auto ra = RunPredictor(a, series);
  const auto rb = RunPredictor(b, series);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_DOUBLE_EQ(ra[i].predicted, rb[i].predicted);
  }
}

TEST(AdaptiveWcma, SandwichedBetweenStaticOptimumAndOracle) {
  // The whole point: realizable dynamic selection lands between the best
  // static configuration (it should beat or approach it) and the
  // clairvoyant bound (it can never beat that).
  SynthOptions opt;
  opt.days = 120;
  const auto trace = SynthesizeTrace(SiteByCode("SPMD"), opt);
  const SlotSeries series(trace, 48);
  const SweepContext ctx(trace, 48);

  AdaptiveWcmaParams ap;
  ap.days = 10;
  AdaptiveWcma adaptive(ap, 48);
  const double adaptive_mape = ScorePredictor(adaptive, series).mape;

  const auto sweep = SweepWcma(ctx, ParamGrid::Paper());
  const double static_best = sweep.BestByMape().mean_stats.mape;
  const auto oracle = EvaluateDynamic(ctx, 10, ParamGrid::Paper());

  EXPECT_GT(adaptive_mape, oracle.both_mape);        // can't beat hindsight
  EXPECT_LT(adaptive_mape, static_best + 0.02);      // competitive with the
                                                     // tuned static optimum
}

TEST(AdaptiveWcma, BeatsBadStaticChoice) {
  // A deployment with a mis-tuned static (α, K) is exactly what adaptation
  // protects against.
  const auto series = MakeSeries("ORNL", 60);
  AdaptiveWcmaParams ap;
  ap.days = 10;
  AdaptiveWcma adaptive(ap, 48);
  WcmaParams bad;
  bad.alpha = 0.0;  // ignores the current sample entirely
  bad.days = 10;
  bad.slots_k = 1;
  Wcma mistuned(bad, 48);
  EXPECT_LT(ScorePredictor(adaptive, series).mape,
            ScorePredictor(mistuned, series).mape);
}

TEST(AdaptiveWcma, NameDescribesBank) {
  AdaptiveWcma a(AdaptiveWcmaParams{}, 48);
  EXPECT_NE(a.Name().find("AdaptiveWCMA"), std::string::npos);
  EXPECT_NE(a.Name().find("5x4"), std::string::npos);
}

}  // namespace
}  // namespace shep
