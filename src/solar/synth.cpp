#include "solar/synth.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "common/check.hpp"
#include "common/threadpool.hpp"
#include "solar/clearsky.hpp"
#include "timeseries/resample.hpp"

namespace shep {

namespace {

constexpr int kGenResolutionS = 60;

void RequireSynthesizable(const SiteProfile& site,
                          const SynthOptions& options) {
  SHEP_REQUIRE(options.days > 0, "trace must contain at least one day");
  SHEP_REQUIRE(options.start_day_of_year >= 1 &&
                   options.start_day_of_year <= 366,
               "start day of year must be in [1, 366]");
  SHEP_REQUIRE(site.resolution_s > 0 &&
                   site.resolution_s % kGenResolutionS == 0 &&
                   kSecondsPerDay % site.resolution_s == 0,
               "site resolution must be a multiple of one minute that "
               "divides one day");
}

/// The synthesis day loop: calls `emit(day)` once per day, in order, with
/// that day's samples at the site's resolution (a span into `scratch`,
/// valid until the next call).  The caller has checked the request.
template <class Emit>
void SynthesizeDays(const SiteProfile& site, const SynthOptions& options,
                    SynthScratch& scratch, Emit&& emit) {
  const WeatherModel model(site.weather);
  Rng rng = Rng(site.seed).Fork(options.seed_offset);

  // Warm the Markov chain so the first simulated day is drawn from (close
  // to) the stationary regime rather than always starting "clear".
  WeatherState state = WeatherState::kClear;
  for (int i = 0; i < 16; ++i) state = model.NextState(state, rng);

  const double scale = site.panel_area_m2 * site.panel_efficiency;
  const int factor = site.resolution_s / kGenResolutionS;
  std::vector<double>& minutes = scratch.day_minutes;
  // Day buffers sized once per lane; capacity persists in scratch.
  minutes.resize(static_cast<std::size_t>(kSecondsPerDay / kGenResolutionS));

  double drift = 0.0;  // AR(1) state carried across days
  for (std::size_t d = 0; d < options.days; ++d) {
    // The 365-day declination cycle: day 366 is one full period past day 1
    // and wraps onto it (see SynthOptions::start_day_of_year).
    const int doy =
        1 + static_cast<int>((options.start_day_of_year - 1 + d) % 365);
    const std::shared_ptr<const std::vector<double>> ghi =
        ClearSkyDayGhiCached(site.latitude_deg, doy, kGenResolutionS);
    const std::vector<double>& day_ghi = *ghi;
    const DayWindow lit = LitWindow(day_ghi);
    model.DayTransmittanceInto(state, kGenResolutionS, drift, rng,
                               scratch.day_tau, scratch.weather, lit);
    // Outside the lit window the clear-sky GHI is +0.0 and τ is finite,
    // so the product is +0.0: written, not computed.
    std::fill(minutes.begin(), minutes.begin() + lit.begin, 0.0);
    for (std::size_t i = lit.begin; i < lit.end; ++i) {
      minutes[i] = day_ghi[i] * scratch.day_tau[i] * scale;
    }
    std::fill(minutes.begin() + lit.end, minutes.end(), 0.0);
    if (factor == 1) {
      emit(std::span<const double>(minutes));
    } else {
      // The site resolution divides the day, so `factor` divides 1440 and
      // the per-day block means are the whole trace's block means.
      DownsampleMeanInto(minutes, factor, scratch.day_samples);
      emit(std::span<const double>(scratch.day_samples));
    }
    state = model.NextState(state, rng);
  }
}

}  // namespace

PowerTrace SynthesizeTrace(const SiteProfile& site,
                           const SynthOptions& options) {
  SynthScratch scratch;
  return SynthesizeTrace(site, options, scratch);
}

PowerTrace SynthesizeTrace(const SiteProfile& site, const SynthOptions& options,
                           SynthScratch& scratch) {
  RequireSynthesizable(site, options);
  // One allocation per trace: the sample vector the PowerTrace owns,
  // reserved up front so each day's append never reallocates.
  std::vector<double> samples;
  samples.reserve(options.days *
                  static_cast<std::size_t>(kSecondsPerDay / site.resolution_s));
  SynthesizeDays(site, options, scratch, [&](std::span<const double> day) {
    samples.insert(samples.end(), day.begin(), day.end());
  });
  return PowerTrace(site.code, std::move(samples), site.resolution_s);
}

SlotSeries SynthesizeSlotSeries(const SiteProfile& site,
                                const SynthOptions& options,
                                int slots_per_day, SynthScratch& scratch) {
  RequireSynthesizable(site, options);
  SlotSeries series(SlotGrid::Make(site.resolution_s, slots_per_day),
                    options.days);
  SynthesizeDays(site, options, scratch, [&](std::span<const double> day) {
    series.AppendDay(day);
  });
  return series;
}

std::vector<PowerTrace> SynthesizePaperTraces(const SynthOptions& options,
                                              ThreadPool* pool) {
  const std::vector<SiteProfile>& sites = PaperSites();
  std::vector<std::optional<PowerTrace>> built(sites.size());
  ParallelFor(pool, sites.size(), [&](std::size_t i) {
    built[i].emplace(SynthesizeTrace(sites[i], options));
  });
  std::vector<PowerTrace> traces;
  traces.reserve(sites.size());
  for (std::optional<PowerTrace>& trace : built) {
    traces.push_back(std::move(*trace));
  }
  return traces;
}

}  // namespace shep
