// synth.hpp — synthetic harvested-power trace generation.
//
// Combines the clear-sky backbone (solar/clearsky.hpp) with the stochastic
// weather process (solar/weather.hpp) and the site's panel parameters to
// produce a PowerTrace with the same shape as the NREL MIDC exports used in
// the paper: 365 days at 1-minute or 5-minute resolution.  Generation always
// runs at 1-minute resolution internally and block-averages down to the
// site's recording resolution, mirroring how real loggers average over the
// reporting interval.
//
// Synthesis is one day loop with two outputs: SynthesizeTrace appends each
// finished day to the returned trace, and SynthesizeSlotSeries folds each
// day straight into the boundaries and means of a SlotSeries, so a fleet
// lane never holds its full-resolution samples.  Inside a day only the
// lit window (clear-sky GHI > 0) is computed; a dark sample is +0.0
// whatever the weather, and its weather draws are still consumed so every
// lit sample keeps its bits.
#pragma once

#include <cstdint>
#include <vector>

#include "solar/sites.hpp"
#include "solar/weather.hpp"
#include "timeseries/slotting.hpp"
#include "timeseries/trace.hpp"

namespace shep {

class ThreadPool;

/// Options for trace synthesis.
struct SynthOptions {
  std::size_t days = 365;        ///< trace length (the paper uses 365).
  /// 1-based calendar start in [1, 366].  The synthetic year is the
  /// 365-day declination cycle, so day 366 (a leap year's Dec 31) wraps to
  /// day 1 — exactly the identity SolarDeclinationRad exhibits (366 and 1
  /// are one full period apart).
  int start_day_of_year = 1;
  std::uint64_t seed_offset = 0; ///< mixed into the site seed; lets tests
                                 ///< draw independent replicas of a site.
};

/// Reusable working storage for the synthesis day loop.  A default-built
/// value works; reusing one across lanes leaves only the result's own
/// storage allocating per call — every per-day intermediate (clear-sky
/// profile, transmittance, smoothing window, cloud events, the day at
/// generation and at site resolution) is served from the scratch or the
/// process-wide clear-sky memo, and no buffer spans more than one day.
/// Fleet workers hold one scratch each.
struct SynthScratch {
  std::vector<double> day_minutes;  ///< one day at 1-minute resolution.
  std::vector<double> day_samples;  ///< that day at the site's resolution
                                    ///< (5-minute sites only).
  std::vector<double> day_tau;      ///< one day of transmittance.
  WeatherModel::DayScratch weather; ///< cloud events + smoothing window.
};

/// Synthesizes a harvested-power trace for `site`.  Deterministic in
/// (site.seed, options): same inputs -> bit-identical trace.
PowerTrace SynthesizeTrace(const SiteProfile& site,
                           const SynthOptions& options = {});

/// Scratch-threaded form: bit-identical to the two-argument overload, but
/// all intermediate buffers come from `scratch`, so a caller looping over
/// traces performs one allocation per trace (its sample vector) instead of
/// several per day.
PowerTrace SynthesizeTrace(const SiteProfile& site, const SynthOptions& options,
                           SynthScratch& scratch);

/// A weather lane as the fleet reads it: bit-identical to
/// SlotSeries(SynthesizeTrace(site, options), slots_per_day), but each day
/// is folded into the series as soon as it is synthesized, so the only
/// allocations are the series' own storage.  The fleet runner's phase 1
/// and TraceCache build every lane through here.
SlotSeries SynthesizeSlotSeries(const SiteProfile& site,
                                const SynthOptions& options,
                                int slots_per_day, SynthScratch& scratch);

/// Convenience: synthesizes all six paper sites at their native resolution
/// (Table I shapes: 105,120 samples for the 5-minute sites, 525,600 for the
/// 1-minute sites when days == 365).  With a pool the sites are built
/// concurrently; each draws from its own seed, so the traces are
/// bit-identical to the serial (null pool) result.
std::vector<PowerTrace> SynthesizePaperTraces(const SynthOptions& options = {},
                                              ThreadPool* pool = nullptr);

}  // namespace shep
