#include "timeseries/slotting.hpp"

#include "common/check.hpp"

namespace shep {

SlotGrid SlotGrid::Make(const PowerTrace& trace, int slots_per_day) {
  return Make(trace.resolution_s(), slots_per_day);
}

SlotGrid SlotGrid::Make(int resolution_s, int slots_per_day) {
  SHEP_REQUIRE(slots_per_day > 0, "slots per day must be positive");
  SHEP_REQUIRE(kSecondsPerDay % slots_per_day == 0,
               "slot count must divide one day");
  SHEP_REQUIRE(resolution_s > 0, "resolution must be positive");
  SlotGrid grid;
  grid.slots_per_day = slots_per_day;
  grid.slot_seconds = kSecondsPerDay / slots_per_day;
  SHEP_REQUIRE(grid.slot_seconds % resolution_s == 0,
               "slot length must be a multiple of the trace resolution");
  grid.samples_per_slot = grid.slot_seconds / resolution_s;
  return grid;
}

SlotSeries::SlotSeries(const PowerTrace& trace, int slots_per_day)
    : SlotSeries(SlotGrid::Make(trace, slots_per_day), trace.days()) {
  for (std::size_t day = 0; day < trace.days(); ++day) {
    AppendDay(trace.day(day));
  }
}

SlotSeries::SlotSeries(const SlotGrid& grid, std::size_t days) : grid_(grid) {
  SHEP_REQUIRE(grid_.slots_per_day > 0 && grid_.samples_per_slot > 0,
               "slot grid must come from SlotGrid::Make");
  boundary_.reserve(days * slots_per_day());
  mean_.reserve(days * slots_per_day());
}

void SlotSeries::AppendDay(std::span<const double> day_samples) {
  const std::size_t n = slots_per_day();
  const auto m = static_cast<std::size_t>(grid_.samples_per_slot);
  SHEP_REQUIRE(day_samples.size() == n * m,
               "a day must hold slots_per_day x samples_per_slot samples");
  const std::size_t base = boundary_.size();
  // Within the reserved days these never reallocate.
  boundary_.resize(base + n);
  mean_.resize(base + n);
  for (std::size_t slot = 0; slot < n; ++slot) {
    const std::size_t first = slot * m;
    boundary_[base + slot] = day_samples[first];
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += day_samples[first + i];
    const double mean = acc / static_cast<double>(m);
    mean_[base + slot] = mean;
    // The first maximum, as std::max_element over the series picks it.
    if (base + slot == 0 || peak_mean_ < mean) peak_mean_ = mean;
  }
}

std::span<const double> SlotSeries::day_boundaries(std::size_t day) const {
  SHEP_REQUIRE(day < days(), "day index out of range");
  return std::span<const double>(boundary_).subspan(day * slots_per_day(),
                                                    slots_per_day());
}

std::span<const double> SlotSeries::day_means(std::size_t day) const {
  SHEP_REQUIRE(day < days(), "day index out of range");
  return std::span<const double>(mean_).subspan(day * slots_per_day(),
                                                slots_per_day());
}

std::size_t SlotSeries::global_index(std::size_t day, std::size_t slot) const {
  SHEP_REQUIRE(day < days(), "day index out of range");
  SHEP_REQUIRE(slot < slots_per_day(), "slot index out of range");
  return day * slots_per_day() + slot;
}

}  // namespace shep
