#include "solar/clearsky.hpp"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "common/check.hpp"
#include "timeseries/trace.hpp"

namespace shep {

double SolarDeclinationRad(int day_of_year) {
  SHEP_REQUIRE(day_of_year >= 1 && day_of_year <= 366,
               "day of year must be in [1, 366]");
  constexpr double kTwoPi = 6.283185307179586;
  return DegToRad(23.45) *
         std::sin(kTwoPi * (284.0 + day_of_year) / 365.0);
}

double HourAngleRad(double solar_hour) {
  return DegToRad(15.0) * (solar_hour - 12.0);
}

double SinElevation(double latitude_rad, double declination_rad,
                    double hour_angle_rad) {
  return std::sin(latitude_rad) * std::sin(declination_rad) +
         std::cos(latitude_rad) * std::cos(declination_rad) *
             std::cos(hour_angle_rad);
}

double HaurwitzGhi(double sin_elevation) {
  if (sin_elevation <= 0.0) return 0.0;
  return 1098.0 * sin_elevation * std::exp(-0.057 / sin_elevation);
}

std::vector<double> ClearSkyDayGhi(double latitude_deg, int day_of_year,
                                   int resolution_s) {
  SHEP_REQUIRE(resolution_s > 0 && kSecondsPerDay % resolution_s == 0,
               "resolution must divide one day");
  const double lat = DegToRad(latitude_deg);
  const double decl = SolarDeclinationRad(day_of_year);
  const auto n = static_cast<std::size_t>(kSecondsPerDay / resolution_s);
  std::vector<double> ghi(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double hour =
        (static_cast<double>(i) + 0.5) * resolution_s / 3600.0;
    ghi[i] = HaurwitzGhi(SinElevation(lat, decl, HourAngleRad(hour)));
  }
  return ghi;
}

namespace {

/// The process-wide memo behind ClearSkyDayGhiCached.  Latitude enters the
/// key by its bit pattern: the memo must distinguish exactly the inputs the
/// computation distinguishes, nothing coarser (and NaN keys, while
/// nonsensical, must at least not corrupt the map ordering).
struct ClearSkyMemo {
  using Key = std::tuple<std::uint64_t, int, int>;

  std::mutex mutex;
  std::map<Key, std::shared_ptr<const std::vector<double>>> entries;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

ClearSkyMemo& TheClearSkyMemo() {
  static ClearSkyMemo memo;  // never destroyed: safe at any shutdown order.
  return memo;
}

}  // namespace

std::shared_ptr<const std::vector<double>> ClearSkyDayGhiCached(
    double latitude_deg, int day_of_year, int resolution_s) {
  ClearSkyMemo& memo = TheClearSkyMemo();
  ClearSkyMemo::Key key{std::bit_cast<std::uint64_t>(latitude_deg),
                        day_of_year, resolution_s};
  {
    std::lock_guard<std::mutex> lock(memo.mutex);
    const auto it = memo.entries.find(key);
    if (it != memo.entries.end()) {
      ++memo.hits;
      return it->second;
    }
  }

  // Miss: compute without holding the lock so a long profile never blocks
  // other keys.  First insertion wins; a racing duplicate is bit-identical
  // (the profile is a pure function of the key) and is simply dropped.
  auto profile = std::make_shared<const std::vector<double>>(
      ClearSkyDayGhi(latitude_deg, day_of_year, resolution_s));

  std::lock_guard<std::mutex> lock(memo.mutex);
  ++memo.misses;
  return memo.entries.emplace(key, std::move(profile)).first->second;
}

ClearSkyMemoStats GetClearSkyMemoStats() {
  ClearSkyMemo& memo = TheClearSkyMemo();
  std::lock_guard<std::mutex> lock(memo.mutex);
  return ClearSkyMemoStats{memo.hits, memo.misses, memo.entries.size()};
}

void ClearClearSkyMemo() {
  ClearSkyMemo& memo = TheClearSkyMemo();
  std::lock_guard<std::mutex> lock(memo.mutex);
  memo.entries.clear();
  memo.hits = 0;
  memo.misses = 0;
}

}  // namespace shep
