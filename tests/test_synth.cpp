// Tests for solar/synth.hpp and solar/sites.hpp — the data substrate.
#include "solar/synth.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/mathutil.hpp"
#include "common/serdes.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "solar/clearsky.hpp"
#include "solar/sites.hpp"
#include "solar/weather.hpp"
#include "timeseries/slotting.hpp"

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

/// The six paper sites plus a 78° N copy of ORNL, whose year runs from
/// polar night (an empty lit window) to midnight sun (the whole day, where
/// the smoothing margin falls off both ends).
std::vector<SiteProfile> OracleSites() {
  std::vector<SiteProfile> sites = PaperSites();
  SiteProfile polar = SiteByCode("ORNL");
  polar.code = "POLAR";
  polar.latitude_deg = 78.0;
  sites.push_back(polar);
  return sites;
}

constexpr int kOracleStartDays[] = {1, 172, 355, 366};
constexpr std::uint64_t kOracleSeedOffsets[] = {0, 1, 17};

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// A windowed DayTransmittanceInto must keep every bit a whole-day call
// computes inside the window, and leave the drift and the generator where
// the whole-day call leaves them.  The windowed call gets fresh buffers,
// so a τ it reads but never computed (say, in the smoothing margin) shows.
TEST(WeatherOracle, LitWindowKeepsTheWholeDayBitsDriftAndDraws) {
  std::size_t empty_windows = 0, whole_days = 0, odd_begins = 0;
  for (const SiteProfile& site : OracleSites()) {
    const WeatherModel model(site.weather);
    for (const std::uint64_t offset : kOracleSeedOffsets) {
      for (const int start : kOracleStartDays) {
        Rng rng = Rng(site.seed).Fork(offset);
        WeatherState state = model.NextState(WeatherState::kClear, rng);
        double drift = 0.0;
        std::vector<double> whole_tau;
        WeatherModel::DayScratch whole_scratch;
        for (int d = 0; d < 6; ++d) {
          const int doy = 1 + (start - 1 + d) % 365;
          const DayWindow lit =
              LitWindow(*ClearSkyDayGhiCached(site.latitude_deg, doy, 60));
          empty_windows += lit.begin == lit.end;
          whole_days += lit.begin == 0 && lit.end == 1440;
          odd_begins += lit.begin % 2 == 1;

          Rng lit_rng = rng;
          double lit_drift = drift;
          std::vector<double> lit_tau;
          WeatherModel::DayScratch lit_scratch;
          model.DayTransmittanceInto(state, 60, lit_drift, lit_rng, lit_tau,
                                     lit_scratch, lit);
          model.DayTransmittanceInto(state, 60, drift, rng, whole_tau,
                                     whole_scratch);

          ASSERT_EQ(lit_tau.size(), whole_tau.size());
          for (std::size_t i = lit.begin; i < lit.end; ++i) {
            ASSERT_TRUE(SameBits(lit_tau[i], whole_tau[i]))
                << site.code << " offset " << offset << " doy " << doy
                << " sample " << i << " window [" << lit.begin << ", "
                << lit.end << ")";
          }
          ASSERT_TRUE(SameBits(lit_drift, drift)) << site.code << " " << doy;
          Rng next_lit = lit_rng;
          Rng next_whole = rng;
          for (int k = 0; k < 64; ++k) {
            ASSERT_TRUE(SameBits(next_lit.NextGaussian(),
                                 next_whole.NextGaussian()))
                << site.code << " doy " << doy << " draw " << k;
          }
          state = model.NextState(state, rng);
        }
      }
    }
  }
  // The cases that matter were all reached.
  EXPECT_GT(empty_windows, 0u);
  EXPECT_GT(whole_days, 0u);
  EXPECT_GT(odd_begins, 0u);
}

// The lane entry point folds each day into its series as it is built; the
// result must be the slotting of the full trace, bit for bit.
TEST(WeatherOracle, SlotSeriesLaneMatchesSlottingTheTrace) {
  SynthScratch scratch;
  for (const SiteProfile& site : OracleSites()) {
    std::vector<int> ns{24, 48, 96};
    if (site.resolution_s == 60) ns.push_back(288);
    for (const std::uint64_t offset : kOracleSeedOffsets) {
      for (const int start : kOracleStartDays) {
        SynthOptions options;
        options.days = 8;
        options.seed_offset = offset;
        options.start_day_of_year = start;
        const PowerTrace trace = SynthesizeTrace(site, options, scratch);
        for (const int n : ns) {
          const SlotSeries expected(trace, n);
          const SlotSeries lane =
              SynthesizeSlotSeries(site, options, n, scratch);
          ASSERT_EQ(lane.days(), expected.days());
          ASSERT_EQ(lane.size(), expected.size());
          EXPECT_EQ(lane.grid().samples_per_slot,
                    expected.grid().samples_per_slot);
          for (std::size_t g = 0; g < expected.size(); ++g) {
            ASSERT_TRUE(SameBits(lane.boundary(g), expected.boundary(g)))
                << site.code << " N " << n << " start " << start << " g " << g;
            ASSERT_TRUE(SameBits(lane.mean(g), expected.mean(g)))
                << site.code << " N " << n << " start " << start << " g " << g;
          }
          ASSERT_TRUE(SameBits(lane.peak_mean(), expected.peak_mean()))
              << site.code << " N " << n << " start " << start;
        }
      }
    }
  }
}

// Full-year pins of the synthesized bits.  Every output of the fleet and
// the paper drivers starts from these samples, so a change to the clear-sky
// or weather arithmetic that moves one bit fails here first, with the new
// digest in the message.
std::uint64_t TraceDigest(const std::vector<PowerTrace>& traces) {
  serdes::Fnv1a hash;
  for (const PowerTrace& trace : traces) {
    hash.Mix(trace.name());
    hash.Mix(static_cast<std::uint64_t>(trace.resolution_s()));
    hash.Mix(static_cast<std::uint64_t>(trace.size()));
    for (const double v : trace.samples()) hash.Mix(v);
  }
  return hash.value();
}

std::uint64_t LaneDigest(const SlotSeries& lane) {
  serdes::Fnv1a hash;
  hash.Mix(static_cast<std::uint64_t>(lane.size()));
  for (const double v : lane.boundaries()) hash.Mix(v);
  for (const double v : lane.means()) hash.Mix(v);
  hash.Mix(lane.peak_mean());
  return hash.value();
}

TEST(SynthesisPin, PaperTracesOfOneYearKeepTheirDigest) {
  SynthOptions options;
  options.days = 365;
  const std::uint64_t digest = TraceDigest(SynthesizePaperTraces(options));
  EXPECT_EQ(digest, 0x3f67471ec7065cbdull) << "0x" << std::hex << digest;
}

TEST(SynthesisPin, SlotSeriesLanesOfOneYearKeepTheirDigests) {
  struct Pin {
    const char* code;
    std::uint64_t seed_offset;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"ORNL", 0, 0xbdcc70fef70e808aull},
      {"ORNL", 1, 0xce1122f293665733ull},
      {"ORNL", 17, 0xbff94ba73657ebb5ull},
      {"ECSU", 0, 0xb824a4cacea83d44ull},
      {"ECSU", 1, 0xe80571ef3b60ff39ull},
      {"ECSU", 17, 0x2e0822031c376338ull},
      {"PFCI", 0, 0x7a238647cfecd96bull},
      {"PFCI", 1, 0x4fe13f86007802a1ull},
      {"PFCI", 17, 0x275477d9f388f027ull},
  };
  SynthScratch scratch;
  for (const Pin& pin : pins) {
    SynthOptions options;
    options.days = 365;
    options.seed_offset = pin.seed_offset;
    const std::uint64_t digest =
        LaneDigest(SynthesizeSlotSeries(SiteByCode(pin.code), options, 48,
                                        scratch));
    EXPECT_EQ(digest, pin.digest)
        << pin.code << " offset " << pin.seed_offset << ": 0x" << std::hex
        << digest;
  }
}

TEST(Synthesize, PooledPaperTracesEqualSerialByteForByte) {
  SynthOptions opt;
  opt.days = 20;
  opt.seed_offset = 3;
  const auto serial = SynthesizePaperTraces(opt);
  ThreadPool pool(4);
  const auto pooled = SynthesizePaperTraces(opt, &pool);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    EXPECT_EQ(pooled[t].name(), serial[t].name());
    EXPECT_EQ(pooled[t].resolution_s(), serial[t].resolution_s());
    ASSERT_EQ(pooled[t].size(), serial[t].size());
    EXPECT_EQ(std::memcmp(pooled[t].samples().data(),
                          serial[t].samples().data(),
                          serial[t].size() * sizeof(double)),
              0)
        << serial[t].name();
  }
}

}  // namespace
}  // namespace shep
