// Tests for sweep/dynamic.hpp — the clairvoyant oracle study (Table V).
#include "sweep/dynamic.hpp"

#include <gtest/gtest.h>

#include "solar/synth.hpp"
#include "sweep/sweep.hpp"

namespace shep {
namespace {

/// Best MAPE among the sweep's points with D = d; null when d is off the
/// grid.
const SweepPoint* BestByMapeWithD(const SweepResult& sweep, int d) {
  const SweepPoint* best = nullptr;
  for (const SweepPoint& p : sweep.points) {
    if (p.days_d == d &&
        (best == nullptr || p.mean_stats.mape < best->mean_stats.mape)) {
      best = &p;
    }
  }
  return best;
}

const SweepContext& SpmdContext() {
  static const SweepContext* ctx = [] {
    SynthOptions opt;
    opt.days = 60;
    const auto trace = SynthesizeTrace(SiteByCode("SPMD"), opt);
    return new SweepContext(trace, 24);
  }();
  return *ctx;
}

TEST(EvaluateDynamic, OracleHierarchyHolds) {
  // Table V's structural claim:  K+α oracle <= each single-parameter
  // oracle <= best static.
  const auto out = EvaluateDynamic(SpmdContext(), 10, ParamGrid::Paper());
  ASSERT_GT(out.count, 0u);
  EXPECT_LE(out.both_mape, out.k_only_mape + 1e-12);
  EXPECT_LE(out.both_mape, out.alpha_only_mape + 1e-12);
  EXPECT_LE(out.k_only_mape, out.static_mape + 1e-12);
  EXPECT_LE(out.alpha_only_mape, out.static_mape + 1e-12);
}

TEST(EvaluateDynamic, SubstantialGainOverStatic) {
  // Paper Sec. IV-C: "more than 10 % increase in prediction accuracy" —
  // i.e. the oracle's MAPE is several points below the static optimum.
  const auto out = EvaluateDynamic(SpmdContext(), 10, ParamGrid::Paper());
  EXPECT_LT(out.both_mape, 0.75 * out.static_mape);
}

TEST(EvaluateDynamic, StaticMatchesSweepAtSameD) {
  // The oracle study's "static" reference must agree with the sweep's best
  // (α, K) at the same D.
  const auto grid = ParamGrid::Paper();
  const auto out = EvaluateDynamic(SpmdContext(), 10, grid);
  const auto sweep = SweepWcma(SpmdContext(), grid);
  const auto* best_at_d = BestByMapeWithD(sweep, 10);
  ASSERT_NE(best_at_d, nullptr);
  EXPECT_NEAR(out.static_mape, best_at_d->mean_stats.mape, 1e-9);
  EXPECT_DOUBLE_EQ(out.static_alpha, best_at_d->alpha);
  EXPECT_EQ(out.static_k, best_at_d->slots_k);
}

TEST(EvaluateDynamic, AlphaOnlyOracleFavoursHigherK) {
  // Paper observation: "higher K values give better results when the other
  // parameter is dynamically set" — the α-oracle's best fixed K is above
  // the static optimum's typical K ∈ {1..3}.
  const auto out = EvaluateDynamic(SpmdContext(), 10, ParamGrid::Paper());
  EXPECT_GE(out.alpha_only_k, 3);
}

TEST(EvaluateDynamic, KOnlyOracleFavoursLowerAlpha) {
  // Counterpart observation: "lower values of α ... give better results"
  // when K adapts per prediction.
  const auto grid = ParamGrid::Paper();
  const auto out = EvaluateDynamic(SpmdContext(), 10, grid);
  const auto sweep = SweepWcma(SpmdContext(), grid);
  const auto* best_static = BestByMapeWithD(sweep, 10);
  ASSERT_NE(best_static, nullptr);
  EXPECT_LT(out.k_only_alpha, best_static->alpha);
}

TEST(EvaluateDynamic, RecordsDaysAndCount) {
  const auto out = EvaluateDynamic(SpmdContext(), 7, ParamGrid::Coarse());
  EXPECT_EQ(out.days_d, 7);
  EXPECT_GT(out.count, 100u);
}

TEST(EvaluateDynamic, SingletonGridOracleEqualsStatic) {
  // With one α and one K there is nothing to adapt: every oracle equals
  // the static error.
  ParamGrid g;
  g.alphas = {0.7};
  g.days = {10};
  g.ks = {2};
  const auto out = EvaluateDynamic(SpmdContext(), 10, g);
  EXPECT_DOUBLE_EQ(out.both_mape, out.static_mape);
  EXPECT_DOUBLE_EQ(out.k_only_mape, out.static_mape);
  EXPECT_DOUBLE_EQ(out.alpha_only_mape, out.static_mape);
}

TEST(EvaluateDynamic, Validation) {
  EXPECT_THROW(EvaluateDynamic(SpmdContext(), 0, ParamGrid::Coarse()),
               std::invalid_argument);
  ParamGrid g;
  EXPECT_THROW(EvaluateDynamic(SpmdContext(), 5, g), std::invalid_argument);
}

}  // namespace
}  // namespace shep
