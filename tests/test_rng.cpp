// Tests for common/rng.hpp: determinism, distribution sanity, forking.
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

namespace shep {
namespace {

TEST(SplitMix64, ProducesKnownSequenceProperties) {
  std::uint64_t state = 0;
  const auto a = SplitMix64(state);
  const auto b = SplitMix64(state);
  EXPECT_NE(a, b);
  // Same seed must reproduce the same stream.
  std::uint64_t state2 = 0;
  EXPECT_EQ(SplitMix64(state2), a);
  EXPECT_EQ(SplitMix64(state2), b);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ZeroSeedIsNotDegenerate) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r.NextU64());
  EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng r(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.Uniform(-2.5, 7.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.5);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng r(3);
  EXPECT_THROW(r.Uniform(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, GaussianMoments) {
  Rng r(13);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = r.NextGaussian();
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, GaussianScaled) {
  Rng r(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += r.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, GaussianRejectsNegativeSigma) {
  Rng r(1);
  EXPECT_THROW(r.Gaussian(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  Rng r(19);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.NextBelow(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextBelowRejectsZero) {
  Rng r(1);
  EXPECT_THROW(r.NextBelow(0), std::invalid_argument);
}

TEST(Rng, NextBoolEdgeProbabilities) {
  Rng r(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.NextBool(0.0));
    EXPECT_TRUE(r.NextBool(1.0));
  }
}

TEST(Rng, NextBoolFrequencyTracksP) {
  Rng r(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkStreamsAreIndependentAndStable) {
  Rng parent(100);
  Rng c1 = parent.Fork(1);
  Rng c2 = parent.Fork(2);
  Rng c1_again = parent.Fork(1);
  EXPECT_EQ(c1.NextU64(), c1_again.NextU64());
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.NextU64() == c2.NextU64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng a(5);
  Rng b(5);
  (void)a.Fork(3);
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

// DiscardGaussian is a NextGaussian whose value nobody reads: any mix of
// the two must leave every drawn value, and every draw after the mix, as
// an all-draw run has them.  The mix covers a discarded first value whose
// spare is read next (the deferred multiplier), a discarded spare, a
// discarded pair, a spare that outlives the mix (odd lengths, discard
// last), and NextDouble calls between Gaussians, which leave the spare
// alone.
TEST(Rng, DiscardGaussianAdvancesExactlyLikeNextGaussian) {
  Rng plan(20261018);
  int odd_batches_ending_in_discard = 0;
  for (int trial = 0; trial < 12000; ++trial) {
    const std::uint64_t seed = plan.NextU64();
    const auto length = 1 + static_cast<int>(plan.NextBelow(24));
    // Every other trial with an odd length discards its last call, so the
    // pair it opens leaves the batch with its spare pending.
    const bool force_last = length % 2 == 1 && trial % 2 == 0;
    if (force_last) ++odd_batches_ending_in_discard;
    Rng all(seed);
    Rng mixed(seed);
    for (int i = 0; i < length; ++i) {
      const std::uint64_t op = plan.NextBelow(5);
      if (op == 0) {
        ASSERT_EQ(all.NextU64(), mixed.NextU64());
        continue;
      }
      const double expected = all.NextGaussian();
      if ((force_last && i == length - 1) || op <= 2) {
        mixed.DiscardGaussian();
      } else {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(mixed.NextGaussian()),
                  std::bit_cast<std::uint64_t>(expected))
            << "trial " << trial << " call " << i;
      }
    }
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(mixed.NextGaussian()),
                std::bit_cast<std::uint64_t>(all.NextGaussian()))
          << "trial " << trial << " draw " << i << " after the mix";
    }
  }
  EXPECT_GT(odd_batches_ending_in_discard, 1000);
}

TEST(Rng, DiscardedLastCallOfAnOddBatchLeavesItsSpareReadable) {
  Rng all(77);
  Rng mixed(77);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(mixed.NextGaussian(), all.NextGaussian());
  }
  (void)all.NextGaussian();
  mixed.DiscardGaussian();  // third of three: opens a pair, reads nothing.
  EXPECT_EQ(mixed.NextGaussian(), all.NextGaussian());  // that pair's spare.
  EXPECT_EQ(mixed.NextGaussian(), all.NextGaussian());
}

}  // namespace
}  // namespace shep
