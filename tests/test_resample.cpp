// Tests for timeseries/resample.hpp.
#include "timeseries/resample.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

namespace shep {
namespace {

/// One or more days of 1-minute samples, each day ramping 0..1439.
std::vector<double> MinuteRamp(std::size_t days) {
  std::vector<double> v(days * 1440);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<double>(i % 1440);
  }
  return v;
}

TEST(DownsampleMeanInto, FiveMinuteBlocks) {
  const auto in = MinuteRamp(1);
  std::vector<double> out;
  DownsampleMeanInto(in, 5, out);
  EXPECT_EQ(out.size(), 288u);
  // First block: mean(0..4) = 2.
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(DownsampleMeanInto, PreservesTotalEnergy) {
  const auto in = MinuteRamp(2);
  std::vector<double> out;
  DownsampleMeanInto(in, 5, out);
  // Energy is sum(P) * dt; the coarse trace's dt is 5x the fine one's.
  const double fine = std::accumulate(in.begin(), in.end(), 0.0) * 60.0;
  const double coarse = std::accumulate(out.begin(), out.end(), 0.0) * 300.0;
  EXPECT_NEAR(coarse, fine, 1e-6);
}

TEST(DownsampleMeanInto, FactorOneIsIdentity) {
  const auto in = MinuteRamp(1);
  std::vector<double> out;
  DownsampleMeanInto(in, 1, out);
  EXPECT_EQ(out, in);
}

TEST(DownsampleMeanInto, ValidatesFactors) {
  const auto in = MinuteRamp(1);
  std::vector<double> out;
  EXPECT_THROW(DownsampleMeanInto(in, 0, out), std::invalid_argument);
  EXPECT_THROW(DownsampleMeanInto(in, -5, out), std::invalid_argument);
  ASSERT_NE(in.size() % 7, 0u);  // 1440 = 7 * 205 + 5
  EXPECT_THROW(DownsampleMeanInto(in, 7, out), std::invalid_argument);
  // One stray sample: a factor that divides a whole day no longer fits.
  std::vector<double> ragged(1441, 1.0);
  ASSERT_NE(ragged.size() % 5, 0u);
  EXPECT_THROW(DownsampleMeanInto(ragged, 5, out), std::invalid_argument);
}

}  // namespace
}  // namespace shep
