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

namespace {

using Profile = std::shared_ptr<const std::vector<double>>;

/// The process-wide memo behind ClearSkyDayGhiCached.  Latitude enters the
/// key by its bit pattern: the memo must distinguish exactly the inputs the
/// computation distinguishes, nothing coarser (and NaN keys, while
/// nonsensical, must at least not corrupt the map ordering).
///
/// `hour_cosines` holds one cos(h) table per resolution: it depends on
/// neither latitude nor day.  The tables are not profiles, so the stats
/// and ClearClearSkyMemo leave them alone.
struct ClearSkyMemo {
  using Key = std::tuple<std::uint64_t, int, int>;

  std::mutex mutex;
  std::map<Key, Profile> entries;
  std::map<int, Profile> hour_cosines;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

ClearSkyMemo& TheClearSkyMemo() {
  static ClearSkyMemo memo;  // never destroyed: safe at any shutdown order.
  return memo;
}

/// cos(HourAngleRad(hour)) at the midpoint hour of each of the day's
/// 86400/resolution_s samples.  Built under the lock, once per process.
Profile HourAngleCosines(int resolution_s) {
  ClearSkyMemo& memo = TheClearSkyMemo();
  std::lock_guard<std::mutex> lock(memo.mutex);
  Profile& table = memo.hour_cosines[resolution_s];
  if (!table) {
    std::vector<double> cos_h(
        static_cast<std::size_t>(kSecondsPerDay / resolution_s));
    for (std::size_t i = 0; i < cos_h.size(); ++i) {
      const double hour =
          (static_cast<double>(i) + 0.5) * resolution_s / 3600.0;
      cos_h[i] = std::cos(HourAngleRad(hour));
    }
    table = std::make_shared<const std::vector<double>>(std::move(cos_h));
  }
  return table;
}

}  // namespace

std::vector<double> ClearSkyDayGhi(double latitude_deg, int day_of_year,
                                   int resolution_s) {
  SHEP_REQUIRE(resolution_s > 0 && kSecondsPerDay % resolution_s == 0,
               "resolution must divide one day");
  const double lat = DegToRad(latitude_deg);
  const double decl = SolarDeclinationRad(day_of_year);
  // SinElevation's expression tree with its per-day terms hoisted: the
  // sample is a + b * cos(h), grouped exactly as SinElevation groups it,
  // so every bit matches the per-sample formula (tests/test_clearsky.cpp).
  const double a = std::sin(lat) * std::sin(decl);
  const double b = std::cos(lat) * std::cos(decl);
  const Profile table = HourAngleCosines(resolution_s);
  const std::vector<double>& cos_h = *table;
  std::vector<double> ghi(cos_h.size());
  for (std::size_t i = 0; i < ghi.size(); ++i) {
    ghi[i] = HaurwitzGhi(a + b * cos_h[i]);
  }
  return ghi;
}

Profile ClearSkyDayGhiCached(double latitude_deg, int day_of_year,
                             int resolution_s) {
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
