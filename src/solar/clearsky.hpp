// clearsky.hpp — solar geometry and clear-sky irradiance.
//
// The synthetic data substrate needs the deterministic backbone of a solar
// power profile: the diurnal bell shape whose width and height drift with
// the season.  We use the standard Cooper declination formula and the
// Haurwitz clear-sky global-horizontal-irradiance model, which depends only
// on solar elevation and reproduces the familiar ~1000 W/m^2 midsummer noon
// peak.  This is exactly the structure the prediction algorithm exploits
// (24-hour cycles, day-to-day similarity of the same slot).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace shep {

/// Degrees-to-radians.
constexpr double DegToRad(double deg) { return deg * 0.017453292519943295; }

/// Solar declination (radians) for a 1-based day of year (Cooper, 1969):
/// delta = 23.45 deg * sin(2*pi*(284+n)/365).
double SolarDeclinationRad(int day_of_year);

/// Hour angle (radians) for local solar time in hours: 15 deg per hour from
/// solar noon, negative in the morning.
double HourAngleRad(double solar_hour);

/// Sine of solar elevation for a latitude/declination/hour-angle triple:
/// sin(el) = sin(lat)sin(decl) + cos(lat)cos(decl)cos(h).  ClearSkyDayGhi's
/// bit-exact test oracle.
double SinElevation(double latitude_rad, double declination_rad,
                    double hour_angle_rad);

/// Haurwitz clear-sky global horizontal irradiance (W/m^2) from the sine of
/// solar elevation; zero when the sun is below the horizon.
double HaurwitzGhi(double sin_elevation);

/// Clear-sky irradiance profile of one day: one GHI sample per
/// `resolution_s` seconds (86400/resolution_s samples, each at its
/// interval's midpoint), for the given latitude and 1-based day of year.
/// Each sample is HaurwitzGhi(SinElevation(lat, decl, HourAngleRad(h))) bit
/// for bit, with the per-day terms taken once and cos(h) read from a
/// process-wide table per resolution.
std::vector<double> ClearSkyDayGhi(double latitude_deg, int day_of_year,
                                   int resolution_s);

/// Process-wide memo of ClearSkyDayGhi keyed by (latitude, day-of-year,
/// resolution).  The profile is a pure function of the key, and fleet
/// campaigns evaluate many weather replicas of the same site over the same
/// calendar window — each of which would otherwise recompute the identical
/// 86400/resolution_s samples (one exp per lit sample) per day.  Repeated
/// calls with one key return the same immutable shared instance.
///
/// Thread-safe; like fleet's TraceCache the profile is computed OUTSIDE the
/// lock, so concurrent first calls on one key may both compute it and the
/// first insertion wins — the loser's bit-identical copy is dropped.
///
/// The memo never evicts.  The synthesis day loop (solar/synth.cpp), its
/// one caller in the library, asks for 60 s profiles of day-of-year
/// 1..365 at a paper site's latitude, so it holds at most
/// PaperSites().size() * 365 profiles (tests/test_clearsky.cpp pins the
/// bound).
std::shared_ptr<const std::vector<double>> ClearSkyDayGhiCached(
    double latitude_deg, int day_of_year, int resolution_s);

/// Counters of the process-wide clear-sky memo.  A concurrent
/// double-compute of one key counts one miss per computing caller.
struct ClearSkyMemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
};
ClearSkyMemoStats GetClearSkyMemoStats();

/// Drops every memoized profile (shared_ptrs held by callers stay alive)
/// and resets the counters; used by tests to start from a cold memo.
void ClearClearSkyMemo();

}  // namespace shep
