// test_serdes.cpp — the hexfloat wire format at the edges of double.
//
// The distributed fleet contract says a partial that crossed a process
// boundary as text merges BIT-identically to one that stayed in memory,
// which reduces to: serdes::WriteDouble -> serdes::ReadDouble must be the
// identity on every double a run can produce.  The suites that pin the
// merge (test_fleet_distributed) exercise ordinary magnitudes; this one
// walks the representation's edges — signed zero, subnormals, extrema,
// infinities, NaN — and the NaN-sample bookkeeping that rides next to the
// doubles (FixedHistogram::nan_count preserves NaN observations as an
// exact integer precisely because "nan" text carries no payload).

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "fleet/aggregate.hpp"

namespace shep {
namespace {

double RoundTrip(double value) {
  std::ostringstream os;
  serdes::WriteDouble(os, value);
  std::istringstream is(os.str());
  return serdes::ReadDouble(is);
}

/// Bit-exact comparison: EQ on doubles would call -0.0 == +0.0 and NaN
/// unequal to itself, which is exactly the wrong tool here.
::testing::AssertionResult BitIdentical(double expected, double actual) {
  if (std::bit_cast<std::uint64_t>(expected) ==
      std::bit_cast<std::uint64_t>(actual)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hexfloat << expected << " round-tripped into " << actual;
}

TEST(SerdesDouble, SignedZeroKeepsItsSign) {
  EXPECT_TRUE(BitIdentical(0.0, RoundTrip(0.0)));
  EXPECT_TRUE(BitIdentical(-0.0, RoundTrip(-0.0)));
  EXPECT_TRUE(std::signbit(RoundTrip(-0.0)));
  EXPECT_FALSE(std::signbit(RoundTrip(0.0)));
}

TEST(SerdesDouble, SubnormalsRoundTripExactly) {
  using limits = std::numeric_limits<double>;
  // The smallest positive double, the largest subnormal (one ulp below
  // DBL_MIN), and a mid-range subnormal with a busy mantissa.
  const double smallest = limits::denorm_min();
  const double largest_subnormal =
      std::nextafter(limits::min(), 0.0);
  const double busy = std::bit_cast<double>(std::uint64_t{0x000F'EDCB'A987'6543});
  for (double v : {smallest, largest_subnormal, busy, -smallest, -busy}) {
    EXPECT_TRUE(BitIdentical(v, RoundTrip(v)));
  }
}

TEST(SerdesDouble, ExtremaAndNeighborsRoundTripExactly) {
  using limits = std::numeric_limits<double>;
  for (double v : {limits::max(), -limits::max(), limits::min(),
                   -limits::min(), std::nextafter(limits::max(), 0.0),
                   limits::epsilon(), 1.0 + limits::epsilon()}) {
    EXPECT_TRUE(BitIdentical(v, RoundTrip(v)));
  }
}

TEST(SerdesDouble, InfinitiesRoundTrip) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(BitIdentical(inf, RoundTrip(inf)));
  EXPECT_TRUE(BitIdentical(-inf, RoundTrip(-inf)));
}

TEST(SerdesDouble, NanRoundTripsAsNan) {
  // "nan" text carries no payload bits, and no aggregate field ever
  // merges on one — what must survive is NaN-ness itself (and NaN
  // OBSERVATIONS survive exactly, via FixedHistogram::nan_count below).
  EXPECT_TRUE(std::isnan(RoundTrip(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(RoundTrip(-std::numeric_limits<double>::quiet_NaN())));
}

TEST(SerdesDouble, DeterministicBitPatternSweepRoundTripsExactly) {
  // A seeded splitmix64 walk over raw bit patterns: every finite double
  // (normal or subnormal, either sign) must survive the text round trip
  // bit for bit.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state]() {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  int finite_seen = 0;
  for (int i = 0; i < 2000; ++i) {
    const double v = std::bit_cast<double>(next());
    if (!std::isfinite(v)) continue;  // NaN payloads legitimately collapse.
    ++finite_seen;
    EXPECT_TRUE(BitIdentical(v, RoundTrip(v)));
  }
  EXPECT_GT(finite_seen, 1900);  // the sweep actually exercised the space.
}

TEST(SerdesDouble, RejectsMalformedAndOverflowingTokens) {
  auto read = [](const std::string& text) {
    std::istringstream is(text);
    return serdes::ReadDouble(is);
  };
  EXPECT_THROW(read("not-a-number"), std::invalid_argument);
  EXPECT_THROW(read("1.5trailing"), std::invalid_argument);
  // Overflowed decimal: no Serialize call emits one (hexfloat never
  // overflows strtod), so it is corruption.
  EXPECT_THROW(read("1e999"), std::invalid_argument);
  EXPECT_THROW(read(""), std::invalid_argument);
  // Subnormal underflow stays accepted (parses exactly).
  EXPECT_TRUE(BitIdentical(std::numeric_limits<double>::denorm_min(),
                           read("0x0.0000000000001p-1022")));
}

TEST(SerdesInteger, NarrowReadersRangeCheckInsteadOfWrapping) {
  auto u32 = [](const std::string& text) {
    std::istringstream is(text);
    return serdes::ReadU32(is);
  };
  auto i32 = [](const std::string& text) {
    std::istringstream is(text);
    return serdes::ReadInt(is);
  };
  EXPECT_EQ(u32("4294967295"), 4294967295u);
  EXPECT_THROW(u32("4294967296"), std::invalid_argument);
  EXPECT_THROW(u32("4294967344"), std::invalid_argument);  // 2^32 + 48
  EXPECT_EQ(i32("2147483647"), 2147483647);
  EXPECT_EQ(i32("0"), 0);
  EXPECT_THROW(i32("2147483648"), std::invalid_argument);
  EXPECT_THROW(i32("4294967344"), std::invalid_argument);
  EXPECT_THROW(i32("-1"), std::invalid_argument);
}

TEST(SerdesMoments, ExtremeFiniteSamplesSurviveTheWire) {
  // Samples spanning the full finite range: the mean stays finite, m2
  // overflows to +inf (a value hexfloat text must carry), and the extrema
  // hold a subnormal and DBL_MAX — all of it must cross the wire bit-exactly.
  StreamingMoments m;
  m.Add(std::numeric_limits<double>::denorm_min());
  m.Add(std::numeric_limits<double>::max());
  ASSERT_TRUE(std::isinf(m.m2));
  std::ostringstream os;
  m.Serialize(os);
  std::istringstream is(os.str());
  const StreamingMoments back = StreamingMoments::Deserialize(is);
  EXPECT_EQ(back.count, m.count);
  EXPECT_TRUE(BitIdentical(m.mean, back.mean));
  EXPECT_TRUE(BitIdentical(m.m2, back.m2));
  EXPECT_TRUE(BitIdentical(m.min, back.min));
  EXPECT_TRUE(BitIdentical(m.max, back.max));
}

TEST(SerdesMoments, NanM2IsRejectedAtTheProcessBoundary) {
  // Infinite SAMPLES poison Welford's m2 to NaN; no valid run produces
  // them, so the deserializer treats a non-(m2 >= 0) token as corruption
  // rather than quietly admitting un-mergeable moments.
  StreamingMoments poisoned;
  poisoned.Add(-std::numeric_limits<double>::infinity());
  poisoned.Add(std::numeric_limits<double>::infinity());
  ASSERT_TRUE(std::isnan(poisoned.m2));
  std::ostringstream os;
  poisoned.Serialize(os);
  std::istringstream is(os.str());
  EXPECT_THROW(static_cast<void>(StreamingMoments::Deserialize(is)),
               std::invalid_argument);
}

TEST(SerdesHistogram, NanObservationsSurviveSerializationExactly) {
  // NaN samples can't sit in a bin (unordered under clamp), so Add tallies
  // them into nan_count — and THAT integer is what preserves the NaN
  // observations across the wire, bit-exactly, where a "nan" double token
  // would have lost payload and count alike.
  FixedHistogram hist(0.0, 1.0, 16);
  hist.Add(0.25);
  hist.Add(std::numeric_limits<double>::quiet_NaN());
  hist.Add(-std::numeric_limits<double>::quiet_NaN());
  hist.Add(0.75);
  hist.Add(std::nan("0x7ff"));  // payload variant counts the same.
  ASSERT_EQ(hist.nan_count(), 3u);
  ASSERT_EQ(hist.total(), 2u);

  std::ostringstream os;
  hist.Serialize(os);
  std::istringstream is(os.str());
  const FixedHistogram back = FixedHistogram::Deserialize(is);
  EXPECT_EQ(back.nan_count(), 3u);
  EXPECT_EQ(back.total(), 2u);
  EXPECT_EQ(back.bins(), hist.bins());

  // The NaN ledger merges additively like any bin and never distorts
  // quantiles.
  FixedHistogram merged(0.0, 1.0, 16);
  merged.Add(std::numeric_limits<double>::quiet_NaN());
  merged.Merge(back);
  EXPECT_EQ(merged.nan_count(), 4u);
  EXPECT_EQ(merged.total(), 2u);
  EXPECT_DOUBLE_EQ(merged.Quantile(0.5),
                   FixedHistogram(back).Quantile(0.5));
}

TEST(SerdesCell, EdgeValueCellRoundTripsThroughText) {
  // End to end at the CellAccumulator level: a cell whose node results sit
  // at the edges (DBL_MIN duty, full violation rate, a NaN histogram
  // sample) round-trips every field.
  CellAccumulator acc;
  NodeSimResult result;
  result.violation_rate = 1.0;
  result.mean_duty = std::numeric_limits<double>::min();  // smallest normal.
  result.harvested_j = 1.0;
  result.overflow_j = 0.0;
  result.mape = std::numeric_limits<double>::denorm_min();
  result.mape_points = 1;
  result.violations = 7;
  result.slots = 48;
  // Graceful-degradation channel at its edges too: an almost-always-dark
  // node whose every post-recovery slot violated.
  result.faulted = true;
  result.downtime_slots = 0xFFFFFFFFull;
  result.recoveries = 3;
  result.post_recovery_slots = 5;
  result.post_recovery_violations = 5;
  acc.Add(result);
  acc.violation_hist.Add(std::numeric_limits<double>::quiet_NaN());

  std::ostringstream os;
  acc.Serialize(os);
  std::istringstream is(os.str());
  const CellAccumulator back = CellAccumulator::Deserialize(is);
  EXPECT_EQ(back.violations, acc.violations);
  EXPECT_EQ(back.scored_slots, acc.scored_slots);
  EXPECT_EQ(back.violation_hist.nan_count(), acc.violation_hist.nan_count());
  EXPECT_TRUE(BitIdentical(acc.mape.mean, back.mape.mean));
  EXPECT_TRUE(BitIdentical(acc.mean_duty.min, back.mean_duty.min));
  EXPECT_EQ(back.downtime_slots, acc.downtime_slots);
  EXPECT_EQ(back.recoveries, acc.recoveries);
  EXPECT_TRUE(back.has_fault_stats());
  EXPECT_TRUE(BitIdentical(acc.availability.mean, back.availability.mean));
  EXPECT_TRUE(BitIdentical(acc.post_recovery_violation_rate.mean,
                           back.post_recovery_violation_rate.mean));
}

}  // namespace
}  // namespace shep
