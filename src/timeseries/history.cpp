#include "timeseries/history.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace shep {

HistoryMatrix::HistoryMatrix(std::size_t capacity_days,
                             std::size_t slots_per_day)
    : capacity_(capacity_days), slots_(slots_per_day) {
  SHEP_REQUIRE(capacity_ >= 1, "history capacity must be at least one day");
  SHEP_REQUIRE(slots_ >= 1, "history needs at least one slot per day");
  data_.assign(capacity_ * slots_, 0.0);
}

void HistoryMatrix::PushDay(std::span<const double> day_samples) {
  SHEP_REQUIRE(day_samples.size() == slots_,
               "day must contain exactly N slot samples");
  std::copy(day_samples.begin(), day_samples.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(next_row_ * slots_));
  next_row_ = (next_row_ + 1) % capacity_;
  stored_ = std::min(stored_ + 1, capacity_);
}

double HistoryMatrix::at_age(std::size_t age, std::size_t slot) const {
  SHEP_REQUIRE(age < stored_, "history age out of range");
  SHEP_REQUIRE(slot < slots_, "slot index out of range");
  // next_row_ points at the oldest row once full (and at the next free row
  // before that); the most recent row is one behind it.
  const std::size_t newest =
      (next_row_ + capacity_ - 1) % capacity_;
  const std::size_t row = (newest + capacity_ - age) % capacity_;
  return data_[row * slots_ + slot];
}

double HistoryMatrix::Mu(std::size_t slot, std::size_t window_days) const {
  SHEP_REQUIRE(stored_ > 0, "history is empty");
  SHEP_REQUIRE(window_days >= 1 && window_days <= capacity_,
               "window must be within capacity");
  const std::size_t w = std::min(window_days, stored_);
  double acc = 0.0;
  for (std::size_t age = 0; age < w; ++age) acc += at_age(age, slot);
  return acc / static_cast<double>(w);
}

void HistoryMatrix::Clear() {
  std::fill(data_.begin(), data_.end(), 0.0);
  stored_ = 0;
  next_row_ = 0;
}

}  // namespace shep
