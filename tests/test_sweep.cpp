// Tests for sweep/sweep.hpp — full-grid exploration and result queries.
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

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

// Every field equal bit for bit (EXPECT_DOUBLE_EQ would allow 4 ULP).
void ExpectSameStats(const ErrorStats& a, const ErrorStats& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mape),
            std::bit_cast<std::uint64_t>(b.mape));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mae),
            std::bit_cast<std::uint64_t>(b.mae));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rmse),
            std::bit_cast<std::uint64_t>(b.rmse));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mbe),
            std::bit_cast<std::uint64_t>(b.mbe));
  EXPECT_EQ(a.count, b.count);
}

// One α scored in its own pass, as a plain serial loop: the reference for
// the expression α·P + (1−α)·Q, the unreciprocated APE divide and the
// ascending-g order of every sum.
SweepContext::ConfigScore SerialScore(const SweepContext& context,
                                      const std::vector<double>& q,
                                      double alpha, const RoiFilter& filter) {
  const auto& series = context.series();
  const std::size_t n = series.slots_per_day();
  double sums[2][4] = {};
  std::size_t counts[2] = {0, 0};
  for (std::size_t g = 0; g < context.points(); ++g) {
    const double pred = alpha * series.boundary(g) + (1.0 - alpha) * q[g];
    const double refs[2] = {series.mean(g), series.boundary(g + 1)};
    const double peaks[2] = {context.peak_mean(), context.peak_boundary()};
    for (int r = 0; r < 2; ++r) {
      if (!filter.Includes(g / n, refs[r], peaks[r]) || refs[r] <= 0.0) {
        continue;
      }
      const double err = refs[r] - pred;
      sums[r][0] += std::fabs(err) / refs[r];
      sums[r][1] += std::fabs(err);
      sums[r][2] += err * err;
      sums[r][3] += err;
      ++counts[r];
    }
  }
  ErrorStats stats[2];
  for (int r = 0; r < 2; ++r) {
    if (counts[r] == 0) continue;
    const double c = static_cast<double>(counts[r]);
    stats[r] = {sums[r][0] / c, sums[r][1] / c, std::sqrt(sums[r][2] / c),
                sums[r][3] / c, counts[r]};
  }
  return {stats[0], stats[1]};
}

// Q(g) = μ_D(g+1)·Φ_K(g) as a plain loop, its weights and Σθ recomputed
// per slot and Φ summed in ascending i: the reference for BuildQ and for
// the Q the sweep computes on the fly.
std::vector<double> SerialQ(const SweepContext& context,
                            const SweepContext::DSeries& d, int slots_k,
                            WcmaWeighting weighting) {
  const auto k = static_cast<std::size_t>(slots_k);
  std::vector<double> q(context.points());
  for (std::size_t g = 0; g < q.size(); ++g) {
    if (d.mu_pred[g] < 0.0) {
      q[g] = context.series().boundary(g);
      continue;
    }
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double theta = weighting == WcmaWeighting::kRamp
                               ? static_cast<double>(i + 1) /
                                     static_cast<double>(k)
                               : 1.0;
      num += theta * d.eta[g + 1 - k + i];
      den += theta;
    }
    q[g] = d.mu_pred[g] * (num / den);
  }
  return q;
}

// Every point of the sweep equals Score for its (D, K, α) alone, and both
// equal the serial reference.
void ExpectSweepMatchesPerAlphaScore(
    const SweepContext& context, const RoiFilter& filter,
    std::vector<int> ks = {1, 3, 6},
    WcmaWeighting weighting = WcmaWeighting::kRamp) {
  ParamGrid grid = ParamGrid::Paper();  // α = 0, 0.1, ..., 1
  grid.days = {2, 7, 20};
  grid.ks = std::move(ks);
  const auto result = SweepWcma(context, grid, filter, nullptr, weighting);
  for (std::size_t i_d = 0; i_d < grid.days.size(); ++i_d) {
    const auto d = context.BuildD(grid.days[i_d]);
    for (std::size_t i_k = 0; i_k < grid.ks.size(); ++i_k) {
      const auto q = context.BuildQ(d, grid.ks[i_k], weighting);
      const auto serial_q = SerialQ(context, d, grid.ks[i_k], weighting);
      for (std::size_t i_a = 0; i_a < grid.alphas.size(); ++i_a) {
        SCOPED_TRACE(testing::Message() << "D=" << grid.days[i_d]
                                        << " K=" << grid.ks[i_k]
                                        << " alpha=" << grid.alphas[i_a]);
        const auto score = context.Score(q, grid.alphas[i_a], filter);
        const auto serial =
            SerialScore(context, serial_q, grid.alphas[i_a], filter);
        const auto& p = result.At(i_d, i_k, i_a);
        ASSERT_TRUE(p.mean_stats.valid());
        EXPECT_EQ(p.slots_k, grid.ks[i_k]);
        ExpectSameStats(p.mean_stats, score.mean);
        ExpectSameStats(p.boundary_stats, score.boundary);
        ExpectSameStats(score.mean, serial.mean);
        ExpectSameStats(score.boundary, serial.boundary);
      }
    }
  }
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
    ExpectSameStats(serial.points[i].mean_stats,
                    parallel.points[i].mean_stats);
    ExpectSameStats(serial.points[i].boundary_stats,
                    parallel.points[i].boundary_stats);
  }
}

TEST(SweepWcma, EveryPointEqualsPerAlphaScoreWithBoundedRoi) {
  RoiFilter filter;
  filter.first_day = 20;
  filter.end_day = 40;
  filter.threshold_fraction = 0.3;
  ExpectSweepMatchesPerAlphaScore(EcsuContext(), filter);
}

TEST(SweepWcma, EveryPointEqualsPerAlphaScoreOnDegenerateGrid) {
  // N = 288 on a 5-minute site: mean == boundary, so α = 1 scores 0.
  SynthOptions opt;
  opt.days = 25;
  const SweepContext context(SynthesizeTrace(SiteByCode("SPMD"), opt), 288);
  ASSERT_TRUE(context.series().grid().degenerate());
  ExpectSweepMatchesPerAlphaScore(context, RoiFilter{});
}

TEST(SweepWcma, EveryPointEqualsPerAlphaScoreWithUniformWeighting) {
  ExpectSweepMatchesPerAlphaScore(EcsuContext(), ShortFilter(), {1, 3, 6},
                                  WcmaWeighting::kUniform);
}

TEST(SweepWcma, EveryPointEqualsPerAlphaScoreForUnsortedKsUpToNMinusOne) {
  // K = N − 1 is the widest Φ window; an unsorted K list must still land
  // each K's scores at its own grid index.
  ExpectSweepMatchesPerAlphaScore(EcsuContext(), ShortFilter(),
                                  {6, 23, 1, 3});
}

TEST(SweepWcma, EveryPointEqualsPerAlphaScoreFromDayZeroWithEverySlotLit) {
  // A 5 W offset lights every slot, so the ROI holds day 0's
  // persistence-fallback slots, the last slot of every day and the
  // boundary sample after each midnight.
  SynthOptions opt;
  opt.days = 25;
  const auto trace = SynthesizeTrace(SiteByCode("ECSU"), opt);
  std::vector<double> samples(trace.samples().begin(), trace.samples().end());
  for (double& sample : samples) sample += 5.0;
  const SweepContext context(
      PowerTrace("ECSU+5W", std::move(samples), trace.resolution_s()), 24);
  RoiFilter filter;
  filter.first_day = 0;
  filter.threshold_fraction = 0.0;
  ExpectSweepMatchesPerAlphaScore(context, filter);
}

TEST(SweepWcma, RejectsKAtOrAboveNSeriallyAndOnAPool) {
  ParamGrid grid = ParamGrid::Coarse();
  grid.ks = {2, 24};  // N = 24
  EXPECT_THROW(SweepWcma(EcsuContext(), grid, ShortFilter()),
               std::invalid_argument);
  ThreadPool pool(4);
  EXPECT_THROW(SweepWcma(EcsuContext(), grid, ShortFilter(), &pool),
               std::invalid_argument);
}

TEST(SweepWcma, UnscoredSweepHasNoBestDesign) {
  // 15 days and the paper's ROI (day 21 on): no slot is scored, so every
  // point keeps MAPE 0 with count 0 and must not be reported as optimal.
  SynthOptions opt;
  opt.days = 15;
  const SweepContext context(SynthesizeTrace(SiteByCode("ECSU"), opt), 24);
  const auto result = SweepWcma(context, ParamGrid::Coarse(), RoiFilter{});
  for (const auto& p : result.points) {
    ASSERT_FALSE(p.mean_stats.valid());
    ASSERT_FALSE(p.boundary_stats.valid());
  }
  EXPECT_THROW(result.BestByMape(), std::invalid_argument);
  EXPECT_THROW(result.BestByMapePrime(), std::invalid_argument);
  EXPECT_THROW(result.BestByMapeWithK(2), std::invalid_argument);
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
