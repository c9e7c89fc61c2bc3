#include "solar/synth.hpp"

#include "common/check.hpp"
#include "solar/clearsky.hpp"
#include "timeseries/resample.hpp"

namespace shep {

PowerTrace SynthesizeTrace(const SiteProfile& site,
                           const SynthOptions& options) {
  SynthScratch scratch;
  return SynthesizeTrace(site, options, scratch);
}

PowerTrace SynthesizeTrace(const SiteProfile& site, const SynthOptions& options,
                           SynthScratch& scratch) {
  SHEP_REQUIRE(options.days > 0, "trace must contain at least one day");
  SHEP_REQUIRE(options.start_day_of_year >= 1 &&
                   options.start_day_of_year <= 366,
               "start day of year must be in [1, 366]");
  SHEP_REQUIRE(site.resolution_s % 60 == 0,
               "site resolution must be a multiple of one minute");

  constexpr int kGenResolutionS = 60;
  const WeatherModel model(site.weather);
  Rng rng = Rng(site.seed).Fork(options.seed_offset);

  // Warm the Markov chain so the first simulated day is drawn from (close
  // to) the stationary regime rather than always starting "clear".
  WeatherState state = WeatherState::kClear;
  for (int i = 0; i < 16; ++i) state = model.NextState(state, rng);

  const double scale = site.panel_area_m2 * site.panel_efficiency;
  std::vector<double>& samples = scratch.minute_samples;
  samples.clear();
  // One up-front reserve per trace, before the per-sample loop; capacity
  // persists in scratch across traces.
  samples.reserve(options.days *
                  static_cast<std::size_t>(kSecondsPerDay / kGenResolutionS));

  double drift = 0.0;  // AR(1) state carried across days
  for (std::size_t d = 0; d < options.days; ++d) {
    // The 365-day declination cycle: day 366 is one full period past day 1
    // and wraps onto it (see SynthOptions::start_day_of_year).
    const int doy =
        1 + static_cast<int>((options.start_day_of_year - 1 + d) % 365);
    const std::shared_ptr<const std::vector<double>> ghi =
        ClearSkyDayGhiCached(site.latitude_deg, doy, kGenResolutionS);
    model.DayTransmittanceInto(state, kGenResolutionS, drift, rng,
                               scratch.day_tau, scratch.weather);
    const std::vector<double>& day_ghi = *ghi;
    for (std::size_t i = 0; i < day_ghi.size(); ++i) {
      // Writes into the capacity reserved above; never reallocates mid-trace.
      samples.push_back(day_ghi[i] * scratch.day_tau[i] * scale);
    }
    state = model.NextState(state, rng);
  }

  // One allocation per trace: the sample vector the PowerTrace owns.  The
  // minute-resolution staging stays in the scratch for the next call.
  const int factor = site.resolution_s / kGenResolutionS;
  if (factor == 1) {
    return PowerTrace(site.code,
                      std::vector<double>(samples.begin(), samples.end()),
                      kGenResolutionS);
  }
  std::vector<double> out;
  DownsampleMeanInto(samples, factor, out);
  return PowerTrace(site.code, std::move(out), site.resolution_s);
}

std::vector<PowerTrace> SynthesizePaperTraces(const SynthOptions& options) {
  std::vector<PowerTrace> traces;
  traces.reserve(PaperSites().size());
  for (const auto& site : PaperSites()) {
    traces.push_back(SynthesizeTrace(site, options));
  }
  return traces;
}

}  // namespace shep
