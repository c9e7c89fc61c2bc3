// weather.hpp — stochastic cloud/weather process for synthetic irradiance.
//
// A solar power profile is the clear-sky backbone multiplied by an
// atmospheric transmittance in (0, 1].  We model transmittance with three
// coupled processes, which together reproduce the phenomenology visible in
// the paper's Fig. 2 (smooth sunny days, depressed overcast days, and
// fast deep dips from passing clouds on mixed days):
//
//  1. a per-day weather STATE (Clear / Partly / Overcast) drawn from a
//     first-order Markov chain — captures multi-day persistence of weather
//     systems (sunny spells, rainy spells);
//  2. a slow AR(1) fluctuation around the state's base transmittance —
//     captures haze/thin-cirrus drift within a day;
//  3. a Poisson process of discrete CLOUD EVENTS, each an attenuation pulse
//     with random depth and duration — captures cumulus passages, the main
//     source of short-horizon prediction error.
//
// Per-site parameters tune how often each state occurs and how violent the
// intra-day processes are; src/solar/sites.hpp instantiates six parameter
// sets whose *relative* difficulty matches the six NREL sites of the paper.
#pragma once

#include <array>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace shep {

/// A half-open range [begin, end) of one day's sample indices.  The
/// default spans the whole day: `end` is clipped to the day's length.
struct DayWindow {
  std::size_t begin = 0;
  std::size_t end = std::numeric_limits<std::size_t>::max();
};

/// The lit window of one day's clear-sky profile: the hull of the samples
/// with GHI > 0.  Empty (begin == end == 0) on a polar-night day.  The
/// clear-sky model is unimodal around solar noon, so every sample outside
/// the window is exactly +0.0 (tests/test_clearsky.cpp pins this for the
/// paper sites' latitudes).
DayWindow LitWindow(std::span<const double> day_ghi);

/// Day-granularity weather regimes.
enum class WeatherState : int { kClear = 0, kPartly = 1, kOvercast = 2 };

inline constexpr int kWeatherStateCount = 3;

/// Parameters of the weather process (see file comment for the roles).
struct WeatherParams {
  /// Markov transition matrix: transition[from][to], rows must sum to 1.
  std::array<std::array<double, 3>, 3> transition{
      {{0.70, 0.20, 0.10}, {0.30, 0.40, 0.30}, {0.25, 0.35, 0.40}}};

  /// Mean transmittance of each state (clear, partly, overcast).
  std::array<double, 3> base_transmittance{0.95, 0.70, 0.35};

  /// Std-dev of the slow AR(1) fluctuation per state.
  std::array<double, 3> drift_sigma{0.02, 0.08, 0.10};

  /// AR(1) pole of the slow fluctuation (0 = white, ->1 = very smooth).
  double drift_phi = 0.995;

  /// Expected cloud events per daylight hour, per state.
  std::array<double, 3> cloud_rate_per_hour{0.1, 4.0, 1.5};

  /// Cloud event attenuation depth range (fraction removed, uniform draw).
  double cloud_depth_min = 0.25;
  double cloud_depth_max = 0.85;

  /// Cloud event duration range in seconds (uniform draw).
  double cloud_duration_min_s = 120.0;
  double cloud_duration_max_s = 1800.0;

  /// Lower clamp so power never quite reaches zero while the sun is up
  /// (diffuse component survives even heavy overcast).
  double min_transmittance = 0.05;

  /// Box-smoothing window (in samples at the generation resolution)
  /// applied to the transmittance series.  Models the gradual edges of
  /// real cloud passages plus the logger's averaging; 1 disables.  Real
  /// MIDC 1-minute data is itself a 1-minute average of ~1 s scans, so
  /// some smoothing is physically required for realistic point-vs-mean
  /// error behaviour.
  int smooth_samples = 7;

  /// Multiplicative per-sample noise (std-dev, Gaussian, applied after
  /// smoothing).  Models scintillation/sensor noise that does NOT average
  /// out at the sample scale; it is what keeps very short prediction
  /// horizons (N = 288) from being trivially exact on synthetic data.
  double fast_sigma = 0.03;

  /// Validates ranges and row sums; throws std::invalid_argument otherwise.
  void Validate() const;
};

/// Simulates the per-day state sequence and per-sample transmittance.
class WeatherModel {
 public:
  /// Reusable working storage for DayTransmittanceInto.  A default-built
  /// value works; reusing one across days/traces makes the generator
  /// allocation-free after the first day (the fleet hot path synthesizes
  /// thousands of days per worker).
  struct DayScratch {
    /// One attenuation pulse of the day's Poisson cloud process.
    struct CloudEvent {
      double start_s, end_s, depth;
    };
    std::vector<CloudEvent> events;
    std::vector<std::size_t> active;  ///< sweep's live-event index window.
    /// The day's AR(1) drift path, then its batched fast-noise draws.
    std::vector<double> gauss;
    std::vector<double> smooth;       ///< box-filter output buffer.
  };

  explicit WeatherModel(const WeatherParams& params);

  const WeatherParams& params() const { return params_; }

  /// Draws the next day's state given the previous day's state.
  WeatherState NextState(WeatherState previous, Rng& rng) const;

  /// Stationary distribution of the state chain (power iteration); used by
  /// reports/tests to characterise a site's climate.
  std::array<double, 3> StationaryDistribution() const;

  /// Generates one day of transmittance values into `tau`, one per
  /// `resolution_s` seconds, reusing `scratch`'s buffers.  The AR(1) drift
  /// state is carried in/out through `drift` so consecutive days join
  /// smoothly.
  ///
  /// Only τ inside `window` is computed; `tau` is sized to the whole day
  /// and its entries outside the window are left unspecified.  The window
  /// never changes what is drawn: the drift AR(1), every cloud event and
  /// every Gaussian draw run for the whole day, so `drift`, `rng` and each
  /// τ inside the window are bit-identical to a whole-day call.  The
  /// window only skips work that no kept τ reads — attenuation and the
  /// clamp outside the window widened by the smoothing margin, the box
  /// smoothing and fast-noise multiply outside the window, and the
  /// log/sqrt of a fast-noise pair neither of whose values is kept
  /// (Rng::DiscardGaussian).  Synthesis passes the day's lit window,
  /// since a dark sample is +0.0 whatever τ is.
  void DayTransmittanceInto(WeatherState state, int resolution_s,
                            double& drift, Rng& rng, std::vector<double>& tau,
                            DayScratch& scratch, DayWindow window = {}) const;

 private:
  WeatherParams params_;
};

}  // namespace shep
