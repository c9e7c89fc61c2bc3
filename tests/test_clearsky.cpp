// Tests for solar/clearsky.hpp — solar geometry sanity.
#include "solar/clearsky.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "solar/sites.hpp"
#include "solar/synth.hpp"
#include "solar/weather.hpp"
#include "timeseries/trace.hpp"

namespace shep {
namespace {

TEST(Declination, SeasonalExtremes) {
  // Summer solstice (~day 172): +23.45 deg; winter (~day 355): -23.45 deg.
  EXPECT_NEAR(SolarDeclinationRad(172), DegToRad(23.45), DegToRad(0.1));
  EXPECT_NEAR(SolarDeclinationRad(355), DegToRad(-23.45), DegToRad(0.1));
  // Equinoxes near zero.
  EXPECT_NEAR(SolarDeclinationRad(81), 0.0, DegToRad(1.0));
}

TEST(Declination, ValidatesDayOfYear) {
  EXPECT_THROW(SolarDeclinationRad(0), std::invalid_argument);
  EXPECT_THROW(SolarDeclinationRad(367), std::invalid_argument);
}

TEST(HourAngle, NoonIsZero) {
  EXPECT_DOUBLE_EQ(HourAngleRad(12.0), 0.0);
  EXPECT_NEAR(HourAngleRad(6.0), DegToRad(-90.0), 1e-12);
  EXPECT_NEAR(HourAngleRad(18.0), DegToRad(90.0), 1e-12);
}

TEST(SinElevation, NoonAboveMorning) {
  const double lat = DegToRad(40.0);
  const double decl = SolarDeclinationRad(172);
  const double noon = SinElevation(lat, decl, HourAngleRad(12.0));
  const double morning = SinElevation(lat, decl, HourAngleRad(8.0));
  EXPECT_GT(noon, morning);
  EXPECT_GT(noon, 0.9);  // high summer sun at 40N
}

TEST(HaurwitzGhi, ZeroBelowHorizon) {
  EXPECT_DOUBLE_EQ(HaurwitzGhi(0.0), 0.0);
  EXPECT_DOUBLE_EQ(HaurwitzGhi(-0.5), 0.0);
}

TEST(HaurwitzGhi, RealisticNoonPeak) {
  // Overhead sun: ~1000 W/m^2 (Haurwitz: 1098*exp(-0.057) ≈ 1037).
  EXPECT_NEAR(HaurwitzGhi(1.0), 1037.0, 5.0);
  // Monotone in elevation.
  EXPECT_LT(HaurwitzGhi(0.3), HaurwitzGhi(0.6));
}

TEST(ClearSkyDayGhi, ShapeAndNight) {
  const auto ghi = ClearSkyDayGhi(40.0, 172, 60);
  ASSERT_EQ(ghi.size(), 1440u);
  // Night at local midnight, sun at local noon.
  EXPECT_DOUBLE_EQ(ghi[0], 0.0);
  const auto peak_it = std::max_element(ghi.begin(), ghi.end());
  const auto peak_idx =
      static_cast<std::size_t>(peak_it - ghi.begin());
  EXPECT_NEAR(static_cast<double>(peak_idx), 720.0, 2.0);  // solar noon
  EXPECT_GT(*peak_it, 800.0);
  EXPECT_LT(*peak_it, 1100.0);
}

TEST(ClearSkyDayGhi, SummerBrighterThanWinter) {
  const auto summer = ClearSkyDayGhi(40.0, 172, 300);
  const auto winter = ClearSkyDayGhi(40.0, 355, 300);
  double es = 0.0, ew = 0.0;
  for (double v : summer) es += v;
  for (double v : winter) ew += v;
  EXPECT_GT(es, 1.8 * ew);
}

TEST(ClearSkyDayGhi, ValidatesResolution) {
  EXPECT_THROW(ClearSkyDayGhi(40.0, 100, 7), std::invalid_argument);
  EXPECT_THROW(ClearSkyDayGhi(40.0, 100, 0), std::invalid_argument);
}

// The profile is the per-sample formula, bit for bit, wherever the
// per-day terms are computed: every paper latitude plus a polar one, every
// day of a leap year, at both recording resolutions.
TEST(ClearSkyDayGhi, EqualsThePerSampleFormulaBitForBit) {
  std::vector<double> latitudes;
  for (const SiteProfile& site : PaperSites()) {
    latitudes.push_back(site.latitude_deg);
  }
  latitudes.push_back(78.0);
  for (const double latitude : latitudes) {
    const double lat = DegToRad(latitude);
    for (int doy = 1; doy <= 366; ++doy) {
      const double decl = SolarDeclinationRad(doy);
      for (const int resolution_s : {60, 300}) {
        const std::vector<double> ghi =
            ClearSkyDayGhi(latitude, doy, resolution_s);
        ASSERT_EQ(ghi.size(),
                  static_cast<std::size_t>(kSecondsPerDay / resolution_s));
        for (std::size_t i = 0; i < ghi.size(); ++i) {
          const double hour =
              (static_cast<double>(i) + 0.5) * resolution_s / 3600.0;
          const double expected =
              HaurwitzGhi(SinElevation(lat, decl, HourAngleRad(hour)));
          ASSERT_EQ(std::bit_cast<std::uint64_t>(ghi[i]),
                    std::bit_cast<std::uint64_t>(expected))
              << "lat " << latitude << " day " << doy << " res "
              << resolution_s << " i " << i;
        }
      }
    }
  }
}

/// Hours of the day the clear-sky profile is lit, at 1-minute resolution.
double DaylightHours(double latitude_deg, int day_of_year) {
  const std::vector<double> ghi = ClearSkyDayGhi(latitude_deg, day_of_year, 60);
  return static_cast<double>(std::count_if(
             ghi.begin(), ghi.end(), [](double w) { return w > 0.0; })) /
         60.0;
}

TEST(DaylightHours, SeasonalAsymmetry) {
  const double summer = DaylightHours(40.0, 172);
  const double winter = DaylightHours(40.0, 355);
  EXPECT_GT(summer, 14.0);
  EXPECT_LT(summer, 15.5);
  EXPECT_GT(winter, 8.5);
  EXPECT_LT(winter, 10.0);
  // Equator is ~12 h year-round.
  EXPECT_NEAR(DaylightHours(0.0, 172), 12.0, 0.2);
}

TEST(DaylightHours, PolarCases) {
  EXPECT_DOUBLE_EQ(DaylightHours(80.0, 172), 24.0);  // midnight sun
  EXPECT_DOUBLE_EQ(DaylightHours(80.0, 355), 0.0);   // polar night
}

// Synthesis computes only a day's lit window and writes +0.0 elsewhere.
// That is exact only if the clear-sky profile is +0.0 (sign bit clear)
// outside one contiguous lit interval, which LitWindow then recovers.
TEST(LitWindow, PaperSitesAreDarkExactlyOutsideOneContiguousInterval) {
  for (const SiteProfile& site : PaperSites()) {
    for (int doy = 1; doy <= 365; ++doy) {
      const std::vector<double> ghi = ClearSkyDayGhi(site.latitude_deg, doy, 60);
      const DayWindow lit = LitWindow(ghi);
      ASSERT_LT(lit.begin, lit.end) << site.code << " day " << doy;
      for (std::size_t i = 0; i < ghi.size(); ++i) {
        if (i >= lit.begin && i < lit.end) {
          ASSERT_GT(ghi[i], 0.0) << site.code << " day " << doy << " i " << i;
        } else {
          ASSERT_EQ(ghi[i], 0.0) << site.code << " day " << doy << " i " << i;
          ASSERT_FALSE(std::signbit(ghi[i]))
              << site.code << " day " << doy << " i " << i;
        }
      }
    }
  }
}

TEST(LitWindow, PolarNightIsEmptyAndMidnightSunIsTheWholeDay) {
  const DayWindow night = LitWindow(ClearSkyDayGhi(78.0, 355, 60));
  EXPECT_EQ(night.begin, night.end);
  const DayWindow sun = LitWindow(ClearSkyDayGhi(78.0, 172, 60));
  EXPECT_EQ(sun.begin, 0u);
  EXPECT_EQ(sun.end, 1440u);
}

// Every sample whose minutes all lie outside the lit window is +0.0 in a
// synthesized trace, at both recording resolutions.
TEST(LitWindow, DarkSamplesOfSynthesizedTracesArePositiveZero) {
  SynthOptions options;
  options.days = 365;
  SynthScratch scratch;
  for (const SiteProfile& site : PaperSites()) {
    const PowerTrace trace = SynthesizeTrace(site, options, scratch);
    const auto factor = static_cast<std::size_t>(site.resolution_s / 60);
    for (std::size_t d = 0; d < trace.days(); ++d) {
      const DayWindow lit = LitWindow(
          ClearSkyDayGhi(site.latitude_deg, static_cast<int>(d) + 1, 60));
      for (std::size_t j = 0; j < trace.samples_per_day(); ++j) {
        if (j * factor + factor <= lit.begin || j * factor >= lit.end) {
          const double v = trace.at(d, j);
          ASSERT_EQ(v, 0.0) << site.code << " day " << d << " j " << j;
          ASSERT_FALSE(std::signbit(v)) << site.code << " day " << d;
        }
      }
    }
  }
}

// The kept τ feeds the lit product, so it must be a finite transmittance.
TEST(LitWindow, KeptTransmittanceIsFiniteAndInRange) {
  for (const SiteProfile& site : PaperSites()) {
    const WeatherModel model(site.weather);
    Rng rng(site.seed);
    WeatherState state = WeatherState::kClear;
    double drift = 0.0;
    std::vector<double> tau;
    WeatherModel::DayScratch scratch;
    for (int doy = 1; doy <= 365; ++doy) {
      const DayWindow lit =
          LitWindow(ClearSkyDayGhi(site.latitude_deg, doy, 60));
      model.DayTransmittanceInto(state, 60, drift, rng, tau, scratch, lit);
      for (std::size_t i = lit.begin; i < lit.end; ++i) {
        ASSERT_TRUE(std::isfinite(tau[i])) << site.code << " day " << doy;
        ASSERT_GE(tau[i], site.weather.min_transmittance);
        ASSERT_LE(tau[i], 1.0);
      }
      state = model.NextState(state, rng);
    }
  }
}

TEST(ClearSkyMemo, ReturnsBitIdenticalProfilesAndSharesInstances) {
  ClearClearSkyMemo();
  const auto direct = ClearSkyDayGhi(35.93, 120, 60);
  const auto cached = ClearSkyDayGhiCached(35.93, 120, 60);
  ASSERT_EQ(cached->size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    ASSERT_EQ((*cached)[i], direct[i]) << "sample " << i;
  }
  // Second lookup: the SAME shared instance, and a hit in the stats.
  const auto again = ClearSkyDayGhiCached(35.93, 120, 60);
  EXPECT_EQ(again.get(), cached.get());
  const auto stats = GetClearSkyMemoStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ClearSkyMemo, DistinguishesEveryKeyComponent) {
  ClearClearSkyMemo();
  const auto base = ClearSkyDayGhiCached(35.93, 120, 60);
  EXPECT_NE(ClearSkyDayGhiCached(36.10, 120, 60).get(), base.get());
  EXPECT_NE(ClearSkyDayGhiCached(35.93, 121, 60).get(), base.get());
  EXPECT_NE(ClearSkyDayGhiCached(35.93, 120, 300).get(), base.get());
  EXPECT_EQ(GetClearSkyMemoStats().entries, 4u);
  ClearClearSkyMemo();
  EXPECT_EQ(GetClearSkyMemoStats().entries, 0u);
}

// The memo never evicts; what bounds it is that synthesis only asks for
// the paper sites' latitudes at day-of-year 1..365.  Two years of every
// site wrap onto the same 365 days, so the memo ends at exactly one
// profile per (site, day-of-year).
TEST(ClearSkyMemo, SynthesisOfEverySiteHoldsOneProfilePerSiteAndDay) {
  ClearClearSkyMemo();
  SynthOptions options;
  options.days = 730;
  SynthScratch scratch;
  for (const SiteProfile& site : PaperSites()) {
    SynthesizeTrace(site, options, scratch);
  }
  EXPECT_EQ(GetClearSkyMemoStats().entries, PaperSites().size() * 365);
  ClearClearSkyMemo();
}

TEST(ClearSkyMemo, ConcurrentFirstUseIsRaceFreeAndConverges) {
  // Many threads hammer an overlapping key set on a cold memo — the
  // sanitizer jobs (TSan in particular) check the locking discipline; the
  // assertions check every thread ends up with the shared, bit-exact
  // profile no matter who computed it first.
  ClearClearSkyMemo();
  constexpr int kThreads = 8;
  constexpr int kDays = 12;
  std::vector<std::vector<std::shared_ptr<const std::vector<double>>>> seen(
      kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      for (int doy = 1; doy <= kDays; ++doy) {
        // Two interleaved key orders so threads collide on cold keys.
        const int day = (t % 2 == 0) ? doy : kDays + 1 - doy;
        seen[static_cast<std::size_t>(t)].push_back(
            ClearSkyDayGhiCached(39.74, day, 300));
      }
    });
  }
  for (auto& th : threads) th.join();

  // Whatever the race outcome, every thread must hold the instance that
  // won the insertion for its key — the one later lookups return — and
  // each kept profile must match a fresh recomputation bit for bit.
  for (int t = 0; t < kThreads; ++t) {
    for (int doy = 1; doy <= kDays; ++doy) {
      const int day = (t % 2 == 0) ? doy : kDays + 1 - doy;
      const auto& mine =
          seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(doy - 1)];
      EXPECT_EQ(mine.get(), ClearSkyDayGhiCached(39.74, day, 300).get())
          << "thread " << t << " day " << day;
      const auto direct = ClearSkyDayGhi(39.74, day, 300);
      ASSERT_EQ(mine->size(), direct.size());
      for (std::size_t i = 0; i < direct.size(); ++i) {
        ASSERT_EQ((*mine)[i], direct[i]) << "day " << day << " sample " << i;
      }
    }
  }
  const auto stats = GetClearSkyMemoStats();
  EXPECT_EQ(stats.entries, static_cast<std::size_t>(kDays));
  EXPECT_GE(stats.misses, static_cast<std::uint64_t>(kDays));
}

// Property: for all paper-site latitudes and several days, GHI is
// non-negative, zero at midnight, and the daily curve is unimodal enough to
// peak within 2 h of noon.
class ClearSkyPropertyTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(ClearSkyPropertyTest, PhysicallyPlausible) {
  const double lat = std::get<0>(GetParam());
  const int doy = std::get<1>(GetParam());
  const auto ghi = ClearSkyDayGhi(lat, doy, 300);
  for (double v : ghi) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1200.0);
  }
  EXPECT_DOUBLE_EQ(ghi[0], 0.0);
  const auto peak_idx = static_cast<std::size_t>(
      std::max_element(ghi.begin(), ghi.end()) - ghi.begin());
  EXPECT_NEAR(static_cast<double>(peak_idx), 144.0, 24.0);
}

INSTANTIATE_TEST_SUITE_P(
    SiteLatitudesAndSeasons, ClearSkyPropertyTest,
    ::testing::Combine(::testing::Values(33.45, 35.93, 36.10, 36.28, 39.74,
                                         40.88),
                       ::testing::Values(21, 81, 172, 265, 355)));

}  // namespace
}  // namespace shep
