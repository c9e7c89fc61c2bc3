#include "solar/weather.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/mathutil.hpp"
#include "timeseries/trace.hpp"

namespace shep {

void WeatherParams::Validate() const {
  for (const auto& row : transition) {
    double sum = 0.0;
    for (double p : row) {
      SHEP_REQUIRE(p >= 0.0 && p <= 1.0,
                   "transition probabilities must be in [0,1]");
      sum += p;
    }
    SHEP_REQUIRE(std::fabs(sum - 1.0) < 1e-9,
                 "transition matrix rows must sum to 1");
  }
  for (double b : base_transmittance) {
    SHEP_REQUIRE(b > 0.0 && b <= 1.0, "base transmittance must be in (0,1]");
  }
  for (double s : drift_sigma) {
    SHEP_REQUIRE(s >= 0.0, "drift sigma must be non-negative");
  }
  SHEP_REQUIRE(drift_phi >= 0.0 && drift_phi < 1.0,
               "AR(1) pole must be in [0,1)");
  for (double r : cloud_rate_per_hour) {
    SHEP_REQUIRE(r >= 0.0, "cloud rate must be non-negative");
  }
  SHEP_REQUIRE(cloud_depth_min >= 0.0 && cloud_depth_max <= 1.0 &&
                   cloud_depth_min <= cloud_depth_max,
               "cloud depth range must be within [0,1] and ordered");
  SHEP_REQUIRE(cloud_duration_min_s > 0.0 &&
                   cloud_duration_min_s <= cloud_duration_max_s,
               "cloud duration range must be positive and ordered");
  SHEP_REQUIRE(min_transmittance >= 0.0 && min_transmittance < 1.0,
               "minimum transmittance must be in [0,1)");
  SHEP_REQUIRE(smooth_samples >= 1, "smoothing window must be >= 1 sample");
  SHEP_REQUIRE(fast_sigma >= 0.0 && fast_sigma < 0.5,
               "fast noise sigma must be in [0, 0.5)");
}

WeatherModel::WeatherModel(const WeatherParams& params) : params_(params) {
  params_.Validate();
}

WeatherState WeatherModel::NextState(WeatherState previous, Rng& rng) const {
  const auto& row = params_.transition[static_cast<std::size_t>(previous)];
  const double u = rng.NextDouble();
  double acc = 0.0;
  for (int s = 0; s < kWeatherStateCount; ++s) {
    acc += row[static_cast<std::size_t>(s)];
    if (u < acc) return static_cast<WeatherState>(s);
  }
  return WeatherState::kOvercast;  // numeric slack: u landed past acc
}

std::array<double, 3> WeatherModel::StationaryDistribution() const {
  std::array<double, 3> pi{1.0 / 3, 1.0 / 3, 1.0 / 3};
  for (int iter = 0; iter < 512; ++iter) {
    std::array<double, 3> next{0.0, 0.0, 0.0};
    for (int from = 0; from < 3; ++from) {
      for (int to = 0; to < 3; ++to) {
        next[static_cast<std::size_t>(to)] +=
            pi[static_cast<std::size_t>(from)] *
            params_.transition[static_cast<std::size_t>(from)]
                              [static_cast<std::size_t>(to)];
      }
    }
    pi = next;
  }
  return pi;
}

DayWindow LitWindow(std::span<const double> day_ghi) {
  DayWindow lit{0, 0};
  const auto first = std::find_if(day_ghi.begin(), day_ghi.end(),
                                  [](double g) { return g > 0.0; });
  if (first == day_ghi.end()) return lit;
  const auto last = std::find_if(day_ghi.rbegin(), day_ghi.rend(),
                                 [](double g) { return g > 0.0; });
  lit.begin = static_cast<std::size_t>(first - day_ghi.begin());
  lit.end = static_cast<std::size_t>(day_ghi.rend() - last);
  return lit;
}

void WeatherModel::DayTransmittanceInto(WeatherState state, int resolution_s,
                                        double& drift, Rng& rng,
                                        std::vector<double>& tau,
                                        DayScratch& scratch,
                                        DayWindow window) const {
  SHEP_REQUIRE(resolution_s > 0 && kSecondsPerDay % resolution_s == 0,
               "resolution must divide one day");
  const auto n = static_cast<std::size_t>(kSecondsPerDay / resolution_s);
  const std::size_t end = std::min(window.end, n);
  const std::size_t begin = std::min(window.begin, end);
  const auto si = static_cast<std::size_t>(state);
  const double base = params_.base_transmittance[si];
  const double sigma = params_.drift_sigma[si];

  // Innovation variance chosen so the AR(1) process has stationary
  // std-dev `sigma` regardless of the pole.
  const double innovation =
      sigma * std::sqrt(std::max(0.0, 1.0 - params_.drift_phi *
                                                params_.drift_phi));

  // Draw the day's cloud events up front (Poisson arrivals over 24 h; the
  // night-time ones simply multiply zero irradiance and are harmless, but
  // their draws keep every later draw in place).
  std::vector<DayScratch::CloudEvent>& events = scratch.events;
  events.clear();
  const double rate_per_s = params_.cloud_rate_per_hour[si] / 3600.0;
  if (rate_per_s > 0.0) {
    double t = 0.0;
    for (;;) {
      // Exponential inter-arrival.
      const double u = std::max(rng.NextDouble(), 1e-300);
      t += -std::log(u) / rate_per_s;
      if (t >= kSecondsPerDay) break;
      DayScratch::CloudEvent ev;
      ev.start_s = t;
      ev.end_s = t + rng.Uniform(params_.cloud_duration_min_s,
                                 params_.cloud_duration_max_s);
      ev.depth = rng.Uniform(params_.cloud_depth_min, params_.cloud_depth_max);
      // Day-scratch event list; capacity persists across days, amortized-zero
      // growth.
      events.push_back(ev);
    }
  }

  // The drift AR(1) runs over the whole day, window or not: it carries
  // into the next day, and its innovations are one Gaussian per sample.
  // gauss[i] keeps the drift after sample i.  Drawing through a local Rng
  // copy lets the generator state live in registers — through the
  // reference the compiler must assume rng's members could alias the
  // output buffer and re-load them every draw.
  std::vector<double>& gauss = scratch.gauss;
  // Scratch buffer sized once per day; capacity persists across days.
  gauss.resize(n);
  Rng local_rng = rng;
  for (std::size_t i = 0; i < n; ++i) {
    drift = params_.drift_phi * drift + local_rng.Gaussian(0.0, innovation);
    gauss[i] = drift;
  }
  rng = local_rng;

  // The box filter below reads `half` samples before and `tail` after each
  // kept sample, so the unsmoothed τ is needed on the window widened by
  // that margin (clipped to the day, as the filter's window is).
  const int w = params_.smooth_samples;
  const auto half = static_cast<std::size_t>(w / 2);
  const auto tail = static_cast<std::size_t>(w) - half - 1;
  const std::size_t raw_begin = begin >= half ? begin - half : 0;
  const std::size_t raw_end = std::min(n, end + tail);

  // Attenuation from overlapping cloud events, weighted by the fraction of
  // the sample interval each event covers (so short events still register
  // correctly on 5-minute grids).  Poisson arrivals come out in time
  // order, so a sweep maintains the few events whose window can still
  // touch the current sample instead of scanning the whole day's list per
  // sample (a heavy-weather day is ~100 events x 1440 samples).  The live
  // list stays in generation order, so the attenuation product multiplies
  // exactly the factors the full scan would, in the same order —
  // bit-identical, just O(samples + events) instead of O(samples x events).
  // Starting the sweep at raw_begin admits every event begun by then and
  // drops the ended ones at once: the same live list in the same order.
  std::vector<std::size_t>& active = scratch.active;
  active.clear();
  std::size_t next_event = 0;
  // Caller-owned output buffer sized once per day before the sample loop.
  tau.resize(n);
  for (std::size_t i = raw_begin; i < raw_end; ++i) {
    const double t0 = static_cast<double>(i) * resolution_s;
    const double t1 = t0 + resolution_s;
    while (next_event < events.size() && events[next_event].start_s < t1) {
      // Live-event sweep list; capacity persists in scratch across days.
      active.push_back(next_event++);
    }
    if (!active.empty()) {
      std::erase_if(active,
                    [&](std::size_t e) { return events[e].end_s <= t0; });
    }
    double attenuation = 1.0;
    for (const std::size_t e : active) {
      const auto& ev = events[e];
      const double overlap =
          std::max(0.0, std::min(t1, ev.end_s) - std::max(t0, ev.start_s));
      if (overlap > 0.0) {
        attenuation *= 1.0 - ev.depth * (overlap / resolution_s);
      }
    }
    tau[i] = Clamp((base + gauss[i]) * attenuation, params_.min_transmittance,
                   1.0);
  }

  // Box-smooth to give cloud passages the gradual edges real loggers see
  // (window clamped at the day boundaries; midnight is dark anyway).  Only
  // samples within `half` of a day edge see a clipped window; the interior
  // loop sums the same taps in the same order over the full window, so
  // its divisor is just w.
  if (w > 1) {
    std::vector<double>& smoothed = scratch.smooth;
    // Smoothing scratch sized once per day; capacity persists across days.
    smoothed.resize(n);
    const auto clipped_mean = [&](std::size_t i) {
      const std::size_t lo = i >= half ? i - half : 0;
      const std::size_t hi = std::min(n - 1, i + tail);
      double acc = 0.0;
      for (std::size_t j = lo; j <= hi; ++j) acc += tau[j];
      return acc / static_cast<double>(hi - lo + 1);
    };
    const std::size_t full_begin = std::min(std::max(begin, half), end);
    const std::size_t full_end =
        std::max(full_begin, std::min(end, n > tail ? n - tail : 0));
    const double width = static_cast<double>(w);
    for (std::size_t i = begin; i < full_begin; ++i) {
      smoothed[i] = clipped_mean(i);
    }
    for (std::size_t i = full_begin; i < full_end; ++i) {
      const double* taps = tau.data() + (i - half);
      double acc = 0.0;
      for (int j = 0; j < w; ++j) acc += taps[j];
      smoothed[i] = acc / width;
    }
    for (std::size_t i = full_end; i < end; ++i) {
      smoothed[i] = clipped_mean(i);
    }
    // The smoothed day becomes the output and tau's old storage becomes
    // next call's smoothing buffer — a swap, so neither side reallocates.
    tau.swap(smoothed);
  }

  // Fast multiplicative noise (scintillation / sensor noise) survives the
  // smoothing by construction, then everything is re-clamped into the
  // physical range.  The noise draws are batched like the drift draws;
  // the ones outside the window are discarded, which advances the
  // generator identically and skips a pair's log/sqrt when neither of
  // its values is kept.
  if (params_.fast_sigma > 0.0) {
    local_rng = rng;
    for (std::size_t i = 0; i < begin; ++i) local_rng.DiscardGaussian();
    for (std::size_t i = begin; i < end; ++i) {
      gauss[i] = local_rng.Gaussian(0.0, params_.fast_sigma);
    }
    for (std::size_t i = end; i < n; ++i) local_rng.DiscardGaussian();
    rng = local_rng;
    for (std::size_t i = begin; i < end; ++i) {
      tau[i] *= 1.0 + gauss[i];
      tau[i] = Clamp(tau[i], params_.min_transmittance, 1.0);
    }
  } else {
    for (std::size_t i = begin; i < end; ++i) {
      tau[i] = Clamp(tau[i], params_.min_transmittance, 1.0);
    }
  }
}

}  // namespace shep
