// Tests for solar/synth.hpp and solar/sites.hpp — the data substrate.
#include "solar/synth.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/mathutil.hpp"
#include "solar/sites.hpp"

namespace shep {
namespace {

TEST(PaperSites, TableOneInventory) {
  const auto& sites = PaperSites();
  ASSERT_EQ(sites.size(), 6u);
  EXPECT_EQ(sites[0].code, "SPMD");
  EXPECT_EQ(sites[0].location, "CO");
  EXPECT_EQ(sites[0].resolution_s, 300);
  EXPECT_EQ(sites[1].code, "ECSU");
  EXPECT_EQ(sites[1].resolution_s, 300);
  EXPECT_EQ(sites[2].code, "ORNL");
  EXPECT_EQ(sites[2].resolution_s, 60);
  EXPECT_EQ(sites[3].code, "HSU");
  EXPECT_EQ(sites[4].code, "NPCS");
  EXPECT_EQ(sites[5].code, "PFCI");
  EXPECT_EQ(sites[5].location, "AZ");
}

TEST(PaperSites, LookupByCode) {
  EXPECT_EQ(SiteByCode("ORNL").location, "TN");
  EXPECT_THROW(SiteByCode("NOPE"), std::invalid_argument);
}

TEST(PaperSites, AllWeatherParamsValid) {
  for (const auto& s : PaperSites()) {
    EXPECT_NO_THROW(s.weather.Validate()) << s.code;
    EXPECT_GT(s.latitude_deg, 30.0) << s.code;
    EXPECT_LT(s.latitude_deg, 42.0) << s.code;
    // Peak electrical power at 1000 W/m^2.
    EXPECT_NEAR(1000.0 * s.panel_area_m2 * s.panel_efficiency, 1.5, 1e-9)
        << s.code;
  }
}

TEST(Synthesize, TableOneObservationCounts) {
  SynthOptions opt;
  opt.days = 365;
  const auto spmd = SynthesizeTrace(SiteByCode("SPMD"), opt);
  EXPECT_EQ(spmd.size(), 105120u);  // Table I, 5-minute site
  const auto pfci = SynthesizeTrace(SiteByCode("PFCI"), opt);
  EXPECT_EQ(pfci.size(), 525600u);  // Table I, 1-minute site
}

TEST(Synthesize, DeterministicPerSeed) {
  SynthOptions opt;
  opt.days = 10;
  const auto a = SynthesizeTrace(SiteByCode("HSU"), opt);
  const auto b = SynthesizeTrace(SiteByCode("HSU"), opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 101) {
    EXPECT_DOUBLE_EQ(a.samples()[i], b.samples()[i]);
  }
}

TEST(Synthesize, SeedOffsetChangesRealisation) {
  SynthOptions a_opt, b_opt;
  a_opt.days = b_opt.days = 5;
  b_opt.seed_offset = 1;
  const auto a = SynthesizeTrace(SiteByCode("HSU"), a_opt);
  const auto b = SynthesizeTrace(SiteByCode("HSU"), b_opt);
  int differing = 0;
  for (std::size_t i = 600; i < 800; ++i) {  // daytime samples
    if (a.samples()[i] != b.samples()[i]) ++differing;
  }
  EXPECT_GT(differing, 100);
}

TEST(Synthesize, NightIsDarkNoonIsBright) {
  SynthOptions opt;
  opt.days = 30;
  opt.start_day_of_year = 150;  // summer
  const auto t = SynthesizeTrace(SiteByCode("PFCI"), opt);
  for (std::size_t d = 0; d < t.days(); ++d) {
    EXPECT_DOUBLE_EQ(t.at(d, 0), 0.0) << "midnight day " << d;
    EXPECT_GT(t.at(d, 720), 0.05) << "noon day " << d;  // desert summer noon
  }
}

TEST(Synthesize, PowerWithinPanelEnvelope) {
  SynthOptions opt;
  opt.days = 60;
  const auto t = SynthesizeTrace(SiteByCode("NPCS"), opt);
  for (double v : t.samples()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.8);  // 1.5 W nominal peak + Haurwitz margin
  }
}

TEST(Synthesize, DesertHasHigherYieldThanConvectiveSite) {
  SynthOptions opt;
  opt.days = 90;
  const auto pfci = SynthesizeTrace(SiteByCode("PFCI"), opt);
  const auto ornl = SynthesizeTrace(SiteByCode("ORNL"), opt);
  EXPECT_GT(pfci.total_energy_j(), 1.15 * ornl.total_energy_j());
}

TEST(Synthesize, ConvectiveSiteIsMoreVolatileDayToDay) {
  // Day-to-day energy variability drives prediction difficulty; the site
  // parameters must reproduce the paper's ordering (ORNL hard, PFCI easy).
  SynthOptions opt;
  opt.days = 120;
  auto cv_daily_energy = [&](const char* code) {
    const auto t = SynthesizeTrace(SiteByCode(code), opt);
    std::vector<double> daily(t.days());
    for (std::size_t d = 0; d < t.days(); ++d) daily[d] = t.day_energy_j(d);
    return std::sqrt(Variance(daily)) / Mean(daily);
  };
  const double cv_ornl = cv_daily_energy("ORNL");
  const double cv_pfci = cv_daily_energy("PFCI");
  EXPECT_GT(cv_ornl, 1.15 * cv_pfci);
}

TEST(Synthesize, PaperTracesCoverAllSites) {
  SynthOptions opt;
  opt.days = 3;
  const auto traces = SynthesizePaperTraces(opt);
  ASSERT_EQ(traces.size(), 6u);
  EXPECT_EQ(traces[0].name(), "SPMD");
  EXPECT_EQ(traces[5].name(), "PFCI");
}

TEST(Synthesize, ValidatesOptions) {
  SynthOptions opt;
  opt.days = 0;
  EXPECT_THROW(SynthesizeTrace(SiteByCode("HSU"), opt),
               std::invalid_argument);
  opt.days = 1;
  opt.start_day_of_year = 0;
  EXPECT_THROW(SynthesizeTrace(SiteByCode("HSU"), opt),
               std::invalid_argument);
  opt.start_day_of_year = 367;
  EXPECT_THROW(SynthesizeTrace(SiteByCode("HSU"), opt),
               std::invalid_argument);
}

TEST(Synthesize, LeapDayStartWrapsToJanuaryFirst) {
  // Day 366 (a leap year's Dec 31) is accepted — SolarDeclinationRad always
  // was defined on [1, 366] and the synthesizer now agrees — and wraps onto
  // day 1: the synthetic year is the 365-day declination cycle, and 366 is
  // exactly one period past 1.  Same seed, so the traces are bit-identical.
  SynthOptions leap;
  leap.days = 5;
  leap.start_day_of_year = 366;
  const auto from_366 = SynthesizeTrace(SiteByCode("ORNL"), leap);
  SynthOptions jan;
  jan.days = 5;
  jan.start_day_of_year = 1;
  const auto from_1 = SynthesizeTrace(SiteByCode("ORNL"), jan);
  ASSERT_EQ(from_366.size(), from_1.size());
  for (std::size_t i = 0; i < from_366.size(); ++i) {
    ASSERT_EQ(from_366.samples()[i], from_1.samples()[i]) << "sample " << i;
  }
}

TEST(Synthesize, ScratchReuseIsBitIdentical) {
  // One scratch carried across traces of different sites and replicas must
  // reproduce the fresh-buffer path exactly: buffer reuse (and the
  // process-wide clear-sky memo behind both paths) may only change where
  // intermediates live, never a single output bit.
  SynthScratch scratch;
  for (const char* code : {"ORNL", "ECSU", "PFCI", "ORNL"}) {
    for (std::uint64_t replica = 0; replica < 2; ++replica) {
      SynthOptions opt;
      opt.days = 7;
      opt.seed_offset = replica;
      const auto fresh = SynthesizeTrace(SiteByCode(code), opt);
      const auto reused = SynthesizeTrace(SiteByCode(code), opt, scratch);
      ASSERT_EQ(fresh.size(), reused.size());
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        ASSERT_EQ(fresh.samples()[i], reused.samples()[i])
            << code << " replica " << replica << " sample " << i;
      }
    }
  }
}

}  // namespace
}  // namespace shep
