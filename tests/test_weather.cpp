// Tests for solar/weather.hpp — the stochastic cloud process.
#include "solar/weather.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace shep {
namespace {

/// One day of transmittance as a fresh vector.
std::vector<double> DayTransmittance(const WeatherModel& model,
                                     WeatherState state, int resolution_s,
                                     double& drift, Rng& rng) {
  std::vector<double> tau;
  WeatherModel::DayScratch scratch;
  model.DayTransmittanceInto(state, resolution_s, drift, rng, tau, scratch);
  return tau;
}

TEST(WeatherParams, DefaultsValidate) {
  WeatherParams w;
  EXPECT_NO_THROW(w.Validate());
}

TEST(WeatherParams, RejectsBadTransitionRows) {
  WeatherParams w;
  w.transition[0] = {0.5, 0.5, 0.5};
  EXPECT_THROW(w.Validate(), std::invalid_argument);
}

TEST(WeatherParams, RejectsOutOfRangeValues) {
  {
    WeatherParams w;
    w.base_transmittance[1] = 1.5;
    EXPECT_THROW(w.Validate(), std::invalid_argument);
  }
  {
    WeatherParams w;
    w.drift_phi = 1.0;
    EXPECT_THROW(w.Validate(), std::invalid_argument);
  }
  {
    WeatherParams w;
    w.cloud_depth_min = 0.9;
    w.cloud_depth_max = 0.5;
    EXPECT_THROW(w.Validate(), std::invalid_argument);
  }
  {
    WeatherParams w;
    w.cloud_duration_min_s = 0.0;
    EXPECT_THROW(w.Validate(), std::invalid_argument);
  }
}

TEST(WeatherModel, NextStateFollowsTransitionFrequencies) {
  WeatherParams w;  // defaults: clear row {0.70, 0.20, 0.10}
  WeatherModel model(w);
  Rng rng(1234);
  std::array<int, 3> counts{0, 0, 0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto s = model.NextState(WeatherState::kClear, rng);
    counts[static_cast<std::size_t>(s)]++;
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.70, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.20, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.10, 0.01);
}

TEST(WeatherModel, StationaryDistributionSumsToOne) {
  WeatherModel model(WeatherParams{});
  const auto pi = model.StationaryDistribution();
  EXPECT_NEAR(pi[0] + pi[1] + pi[2], 1.0, 1e-9);
  for (double p : pi) EXPECT_GE(p, 0.0);
}

TEST(WeatherModel, StationaryDistributionIsFixedPoint) {
  WeatherParams w;
  WeatherModel model(w);
  const auto pi = model.StationaryDistribution();
  for (int to = 0; to < 3; ++to) {
    double next = 0.0;
    for (int from = 0; from < 3; ++from) {
      next += pi[static_cast<std::size_t>(from)] *
              w.transition[static_cast<std::size_t>(from)]
                          [static_cast<std::size_t>(to)];
    }
    EXPECT_NEAR(next, pi[static_cast<std::size_t>(to)], 1e-9);
  }
}

TEST(WeatherModel, DayTransmittanceWithinBounds) {
  WeatherModel model(WeatherParams{});
  Rng rng(7);
  double drift = 0.0;
  for (auto state : {WeatherState::kClear, WeatherState::kPartly,
                     WeatherState::kOvercast}) {
    const auto tau = DayTransmittance(model, state, 60, drift, rng);
    ASSERT_EQ(tau.size(), 1440u);
    for (double t : tau) {
      EXPECT_GE(t, WeatherParams{}.min_transmittance);
      EXPECT_LE(t, 1.0);
    }
  }
}

TEST(WeatherModel, ClearDaysBrighterThanOvercast) {
  WeatherModel model(WeatherParams{});
  Rng rng(99);
  double drift = 0.0;
  double clear_sum = 0.0, overcast_sum = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    for (double t :
         DayTransmittance(model, WeatherState::kClear, 300, drift, rng)) {
      clear_sum += t;
    }
    for (double t :
         DayTransmittance(model, WeatherState::kOvercast, 300, drift, rng)) {
      overcast_sum += t;
    }
  }
  EXPECT_GT(clear_sum, 1.5 * overcast_sum);
}

TEST(WeatherModel, PartlyDaysAreMostVolatile) {
  // The defining property for prediction difficulty: partly-cloudy days
  // carry much more intra-day variance than clear days.  (Step-to-step
  // differences would be dominated by the fast scintillation noise that
  // all states share, so the level variance is the discriminating metric.)
  WeatherModel model(WeatherParams{});
  Rng rng(42);
  auto level_stddev = [&](WeatherState s) {
    double drift = 0.0;
    double acc = 0.0;
    int reps = 20;
    for (int rep = 0; rep < reps; ++rep) {
      const auto tau = DayTransmittance(model, s, 300, drift, rng);
      double mean = 0.0;
      for (double t : tau) mean += t;
      mean /= static_cast<double>(tau.size());
      double var = 0.0;
      for (double t : tau) var += (t - mean) * (t - mean);
      acc += std::sqrt(var / static_cast<double>(tau.size()));
    }
    return acc / reps;
  };
  EXPECT_GT(level_stddev(WeatherState::kPartly),
            2.0 * level_stddev(WeatherState::kClear));
}

TEST(WeatherModel, DeterministicGivenSeed) {
  WeatherModel model(WeatherParams{});
  Rng r1(5), r2(5);
  double d1 = 0.0, d2 = 0.0;
  const auto a = DayTransmittance(model, WeatherState::kPartly, 300, d1, r1);
  const auto b = DayTransmittance(model, WeatherState::kPartly, 300, d2, r2);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(d1, d2);
}

TEST(WeatherModel, ValidatesResolution) {
  WeatherModel model(WeatherParams{});
  Rng rng(1);
  double drift = 0.0;
  EXPECT_THROW(DayTransmittance(model, WeatherState::kClear, 7, drift, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace shep
