// Integration tests: the paper's qualitative claims, end-to-end on the
// synthetic substrate (smaller trace lengths than the bench harnesses so
// the suite stays fast; the full 365-day runs live in bench/).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"
#include "core/wcma.hpp"
#include "hw/energy_model.hpp"
#include "report/table.hpp"
#include "solar/synth.hpp"
#include "sweep/dynamic.hpp"
#include "sweep/sweep.hpp"

namespace shep {
namespace {

// Shared fixture: a 100-day ORNL-like trace (1-minute, volatile) and an
// 100-day PFCI-like trace (1-minute, sunny).
class PaperTrendsTest : public ::testing::Test {
 protected:
  static const PowerTrace& Ornl() {
    static const PowerTrace t = [] {
      SynthOptions opt;
      opt.days = 100;
      return SynthesizeTrace(SiteByCode("ORNL"), opt);
    }();
    return t;
  }
  static const PowerTrace& Pfci() {
    static const PowerTrace t = [] {
      SynthOptions opt;
      opt.days = 100;
      return SynthesizeTrace(SiteByCode("PFCI"), opt);
    }();
    return t;
  }
  static ParamGrid MidGrid() {
    ParamGrid g;
    for (int i = 0; i <= 10; ++i) g.alphas.push_back(i / 10.0);
    g.days = {2, 5, 10, 15, 20};
    g.ks = {1, 2, 3, 4, 5, 6};
    return g;
  }
};

TEST_F(PaperTrendsTest, AccuracyImprovesWithSamplingRate) {
  // Table III: MAPE decreases monotonically as N grows, on every site.
  for (const auto* trace : {&Ornl(), &Pfci()}) {
    double prev = 1e9;
    for (int n : {24, 48, 96, 288}) {
      const SweepContext ctx(*trace, n);
      const auto sweep = SweepWcma(ctx, MidGrid());
      const double mape = sweep.BestByMape().mean_stats.mape;
      EXPECT_LT(mape, prev) << trace->name() << " N=" << n;
      prev = mape;
    }
  }
}

TEST_F(PaperTrendsTest, SunnySiteEasierThanVolatileSite) {
  // Table III ordering: PFCI's best MAPE is well below ORNL's at N=48.
  const SweepContext ornl(Ornl(), 48);
  const SweepContext pfci(Pfci(), 48);
  const double m_ornl = SweepWcma(ornl, MidGrid()).BestByMape().mean_stats.mape;
  const double m_pfci = SweepWcma(pfci, MidGrid()).BestByMape().mean_stats.mape;
  EXPECT_LT(m_pfci, 0.75 * m_ornl);
}

TEST_F(PaperTrendsTest, MapePrimeOptimizationPicksLowerAlpha) {
  // Table II: optimizing under MAPE′ yields a smaller α than under MAPE,
  // and a larger reported error.
  const SweepContext ctx(Ornl(), 48);
  const auto sweep = SweepWcma(ctx, MidGrid());
  const auto& by_mape = sweep.BestByMape();
  const auto& by_prime = sweep.BestByMapePrime();
  EXPECT_LT(by_prime.alpha, by_mape.alpha);
  EXPECT_GT(by_prime.boundary_stats.mape, by_mape.mean_stats.mape);
}

TEST_F(PaperTrendsTest, AlphaGrowsWithSamplingRate) {
  // Table III: "as value of N approaches 288, the value of α tends to 1".
  const SweepContext c24(Ornl(), 24);
  const SweepContext c288(Ornl(), 288);
  const double a24 = SweepWcma(c24, MidGrid()).BestByMape().alpha;
  const double a288 = SweepWcma(c288, MidGrid()).BestByMape().alpha;
  EXPECT_GT(a288, a24);
  EXPECT_GE(a288, 0.8);
}

TEST_F(PaperTrendsTest, DiminishingReturnsInD) {
  // Fig. 7: the steep accuracy gain is all in the first few days of
  // history; past D ≈ 10 the curve is flat (paper: asymptotically flat;
  // on our synthetic substrate seasonal staleness can even tilt it up a
  // whisker — see README "Synthetic substrate and known deviations").
  // Assert: D=2 -> D=10 improves MAPE noticeably, while |D=20 - D=10| is
  // small by comparison.
  const SweepContext ctx(Ornl(), 48);
  ParamGrid g = MidGrid();
  const auto sweep = SweepWcma(ctx, g);
  const auto mape_at_d = [&](int d) {
    const auto* p = sweep.BestByMapeWithD(d);
    EXPECT_NE(p, nullptr);
    return p->mean_stats.mape;
  };
  const double d2 = mape_at_d(2);
  const double d10 = mape_at_d(10);
  const double d20 = mape_at_d(20);
  EXPECT_GT(d2 - d10, 0.005);  // first days of history matter
  EXPECT_LT(std::fabs(d20 - d10), 0.5 * (d2 - d10));  // tail is flat
}

TEST_F(PaperTrendsTest, KEqualsTwoIsNearOptimal) {
  // Table III last column: pinning K=2 costs only a whisker of MAPE (the
  // paper sees <= 0.3 points; our synthetic substrate is a little more
  // K-sensitive, so we bound the cost at 2 points — still "near optimal"
  // next to the 5-15 point swings the other parameters cause).
  for (const auto* trace : {&Ornl(), &Pfci()}) {
    const SweepContext ctx(*trace, 48);
    const auto sweep = SweepWcma(ctx, MidGrid());
    const double best = sweep.BestByMape().mean_stats.mape;
    const auto* k2 = sweep.BestByMapeWithK(2);
    ASSERT_NE(k2, nullptr);
    EXPECT_LT(k2->mean_stats.mape - best, 0.02) << trace->name();
  }
}

TEST_F(PaperTrendsTest, DynamicOracleBeatsStaticBySeveralPoints) {
  // Table V: the K+α oracle at N=48 is far below the static optimum —
  // "dynamic algorithm accuracy at N=48 is higher than static at N=288".
  const SweepContext ctx(Ornl(), 48);
  const auto dyn = EvaluateDynamic(ctx, 20, ParamGrid::Paper());
  EXPECT_LT(dyn.both_mape, 0.7 * dyn.static_mape);

  // Paper Sec. IV-C: "dynamic algorithm accuracy at N=48 is higher than
  // the accuracy of static algorithm at N=288".  On our substrate the
  // N=288 static error is somewhat lower than NREL reality (documented in
  // README "Synthetic substrate and known deviations"), so we assert the
  // softer form: the 48-slot oracle is in the same band as the 288-slot
  // static optimum, not 6x coarser as the raw horizon ratio would suggest.
  const SweepContext ctx288(Ornl(), 288);
  const auto static288 =
      SweepWcma(ctx288, MidGrid()).BestByMape().mean_stats.mape;
  EXPECT_LT(dyn.both_mape, 1.5 * static288);
}

TEST_F(PaperTrendsTest, HardwareOverheadSmallAndMonotone) {
  // Fig. 6 end-to-end from a real measured op mix.
  WcmaParams p;
  p.alpha = 0.7;
  p.days = 20;
  p.slots_k = 2;
  SynthOptions opt;
  opt.days = 25;
  const auto trace = SynthesizeTrace(SiteByCode("NPCS"), opt);
  const McuPowerSpec spec;
  const CycleCosts costs;
  const auto ops = MeasureWakeupOps(p, trace, 48).full_work;
  const auto act = ComputeActivityEnergy(spec, costs, ops);
  double prev = 0.0;
  for (int n : {24, 48, 72, 96, 288}) {
    const auto b = ComputeDayBudget(spec, costs, act, n, ops);
    EXPECT_GT(b.OverheadPercent(), prev);
    prev = b.OverheadPercent();
  }
  EXPECT_LT(prev, 6.0);  // even N=288 stays near the paper's 4.85 %
}

TEST_F(PaperTrendsTest, ReportPipelineRendersSweepResults) {
  // Smoke the reporting path the bench binaries use.
  const SweepContext ctx(Pfci(), 24);
  const auto sweep = SweepWcma(ctx, ParamGrid::Coarse());
  TableBuilder t("Table III excerpt");
  t.Columns({"Data Set", "N", "alpha", "D", "K", "MAPE"});
  const auto& best = sweep.BestByMape();
  t.AddRow({sweep.dataset, std::to_string(sweep.slots_per_day),
            FormatFixed(best.alpha, 1), std::to_string(best.days_d),
            std::to_string(best.slots_k), FormatPercent(best.mean_stats.mape)});
  const auto rendered = t.ToString();
  EXPECT_NE(rendered.find("PFCI"), std::string::npos);
  EXPECT_NE(rendered.find('%'), std::string::npos);
}

// Per-site property sweep: the core Table II/III trends must hold on EVERY
// site profile, not just the two the fixture exercises in depth.
class AllSitesTrendTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AllSitesTrendTest, CoreTrendsHold) {
  SynthOptions opt;
  opt.days = 70;
  const auto trace = SynthesizeTrace(SiteByCode(GetParam()), opt);

  ParamGrid grid;
  grid.alphas = {0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0};
  grid.days = {2, 5, 10, 20};
  grid.ks = {1, 2, 4, 6};

  const SweepContext c48(trace, 48);
  const auto s48 = SweepWcma(c48, grid);
  const auto& best48 = s48.BestByMape();

  // Error lands in a plausible solar-prediction band and the optimum uses
  // both terms of Eq. 1.
  EXPECT_GT(best48.mean_stats.mape, 0.02) << GetParam();
  EXPECT_LT(best48.mean_stats.mape, 0.30) << GetParam();
  EXPECT_GT(best48.alpha, 0.0) << GetParam();
  EXPECT_LT(best48.alpha, 1.0) << GetParam();

  // MAPE' optimum reports higher error at lower alpha (Table II).
  const auto& prime48 = s48.BestByMapePrime();
  EXPECT_GT(prime48.boundary_stats.mape, best48.mean_stats.mape)
      << GetParam();
  EXPECT_LE(prime48.alpha, best48.alpha) << GetParam();

  // Coarser horizon is harder (Table III).
  const SweepContext c24(trace, 24);
  const auto s24 = SweepWcma(c24, grid);
  EXPECT_GT(s24.BestByMape().mean_stats.mape, best48.mean_stats.mape)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SixSites, AllSitesTrendTest,
                         ::testing::Values("SPMD", "ECSU", "ORNL", "HSU",
                                           "NPCS", "PFCI"));

}  // namespace
}  // namespace shep
