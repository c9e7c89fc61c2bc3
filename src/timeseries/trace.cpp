#include "timeseries/trace.hpp"

#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/mathutil.hpp"

namespace shep {

PowerTrace::PowerTrace(std::string name, std::vector<double> samples,
                       int resolution_s)
    : name_(std::move(name)),
      samples_(std::move(samples)),
      resolution_s_(resolution_s) {
  SHEP_REQUIRE(resolution_s_ > 0, "trace resolution must be positive");
  SHEP_REQUIRE(kSecondsPerDay % resolution_s_ == 0,
               "trace resolution must divide one day");
  samples_per_day_ =
      static_cast<std::size_t>(kSecondsPerDay / resolution_s_);
  SHEP_REQUIRE(!samples_.empty(), "trace must contain samples");
  SHEP_REQUIRE(samples_.size() % samples_per_day_ == 0,
               "trace must contain whole days of samples");
  for (double s : samples_) {
    SHEP_REQUIRE(std::isfinite(s) && s >= 0.0,
                 "power samples must be finite and non-negative");
  }
  peak_ = MaxValue(samples_);
}

std::span<const double> PowerTrace::day(std::size_t day_index) const {
  SHEP_REQUIRE(day_index < days(), "day index out of range");
  return std::span<const double>(samples_).subspan(
      day_index * samples_per_day_, samples_per_day_);
}

double PowerTrace::at(std::size_t day_index, std::size_t offset) const {
  SHEP_REQUIRE(day_index < days(), "day index out of range");
  SHEP_REQUIRE(offset < samples_per_day_, "offset out of range");
  return samples_[day_index * samples_per_day_ + offset];
}

double PowerTrace::day_energy_j(std::size_t day_index) const {
  const auto d = day(day_index);
  double acc = 0.0;
  for (double p : d) acc += p;
  return acc * static_cast<double>(resolution_s_);
}

double PowerTrace::total_energy_j() const {
  double acc = 0.0;
  for (double p : samples_) acc += p;
  return acc * static_cast<double>(resolution_s_);
}

}  // namespace shep
