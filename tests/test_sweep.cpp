// Tests for sweep/sweep.hpp — full-grid exploration and result queries.
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "solar/synth.hpp"

namespace shep {
namespace {

const SweepContext& EcsuContext() {
  static const SweepContext* ctx = [] {
    SynthOptions opt;
    opt.days = 45;
    const auto trace = SynthesizeTrace(SiteByCode("ECSU"), opt);
    return new SweepContext(trace, 24);
  }();
  return *ctx;
}

RoiFilter ShortFilter() {
  RoiFilter f;
  f.first_day = 20;
  return f;
}

TEST(SweepWcma, ProducesOnePointPerGridEntry) {
  const auto grid = ParamGrid::Coarse();
  const auto result = SweepWcma(EcsuContext(), grid, ShortFilter());
  EXPECT_EQ(result.points.size(), grid.size());
  EXPECT_EQ(result.dataset, "ECSU");
  EXPECT_EQ(result.slots_per_day, 24);
  EXPECT_FALSE(result.degenerate);
  for (const auto& p : result.points) {
    EXPECT_TRUE(p.mean_stats.valid());
    EXPECT_TRUE(p.boundary_stats.valid());
    EXPECT_GE(p.mean_stats.mape, 0.0);
  }
}

TEST(SweepWcma, AtIndexingMatchesGridOrder) {
  const auto grid = ParamGrid::Coarse();
  const auto result = SweepWcma(EcsuContext(), grid, ShortFilter());
  for (std::size_t i_d = 0; i_d < grid.days.size(); ++i_d) {
    for (std::size_t i_k = 0; i_k < grid.ks.size(); ++i_k) {
      for (std::size_t i_a = 0; i_a < grid.alphas.size(); ++i_a) {
        const auto& p = result.At(i_d, i_k, i_a);
        EXPECT_EQ(p.days_d, grid.days[i_d]);
        EXPECT_EQ(p.slots_k, grid.ks[i_k]);
        EXPECT_DOUBLE_EQ(p.alpha, grid.alphas[i_a]);
      }
    }
  }
  EXPECT_THROW(result.At(99, 0, 0), std::invalid_argument);
}

TEST(SweepWcma, ParallelAndSerialResultsAreIdentical) {
  const auto grid = ParamGrid::Coarse();
  const auto serial = SweepWcma(EcsuContext(), grid, ShortFilter());
  ThreadPool pool(4);
  const auto parallel = SweepWcma(EcsuContext(), grid, ShortFilter(), &pool);
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.points[i].mean_stats.mape,
                     parallel.points[i].mean_stats.mape);
    EXPECT_DOUBLE_EQ(serial.points[i].boundary_stats.mape,
                     parallel.points[i].boundary_stats.mape);
  }
}

TEST(SweepWcma, BestByMapeIsActuallyMinimal) {
  const auto grid = ParamGrid::Coarse();
  const auto result = SweepWcma(EcsuContext(), grid, ShortFilter());
  const auto& best = result.BestByMape();
  for (const auto& p : result.points) {
    EXPECT_LE(best.mean_stats.mape, p.mean_stats.mape);
  }
  const auto& best_prime = result.BestByMapePrime();
  for (const auto& p : result.points) {
    EXPECT_LE(best_prime.boundary_stats.mape, p.boundary_stats.mape);
  }
}

TEST(SweepWcma, BestWithConstraintRespectsConstraint) {
  const auto grid = ParamGrid::Coarse();
  const auto result = SweepWcma(EcsuContext(), grid, ShortFilter());
  const auto* with_k = result.BestByMapeWithK(2);
  ASSERT_NE(with_k, nullptr);
  EXPECT_EQ(with_k->slots_k, 2);
  EXPECT_GE(with_k->mean_stats.mape, result.BestByMape().mean_stats.mape);
  EXPECT_EQ(result.BestByMapeWithK(99), nullptr);
}

TEST(SweepWcma, FindLocatesExactTriples) {
  const auto grid = ParamGrid::Coarse();
  const auto result = SweepWcma(EcsuContext(), grid, ShortFilter());
  const auto* p = result.Find(0.5, 10, 2);
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->alpha, 0.5);
  EXPECT_EQ(p->days_d, 10);
  EXPECT_EQ(p->slots_k, 2);
  EXPECT_EQ(result.Find(0.33, 10, 2), nullptr);
}

TEST(SweepWcma, MapeLowerThanMapePrimeAtOptimum) {
  // The qualitative heart of Table II: scoring against the slot mean gives
  // systematically lower error than scoring against the boundary sample.
  const auto grid = ParamGrid::Coarse();
  const auto result = SweepWcma(EcsuContext(), grid, ShortFilter());
  EXPECT_LT(result.BestByMape().mean_stats.mape,
            result.BestByMapePrime().boundary_stats.mape);
}

TEST(SweepWcma, RejectsEmptyGrid) {
  ParamGrid g;
  EXPECT_THROW(SweepWcma(EcsuContext(), g), std::invalid_argument);
}

}  // namespace
}  // namespace shep
