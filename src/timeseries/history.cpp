#include "timeseries/history.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace shep {

HistoryMatrix::HistoryMatrix(int capacity_days, int slots_per_day) {
  SHEP_REQUIRE(capacity_days >= 1, "history capacity must be at least one day");
  SHEP_REQUIRE(slots_per_day >= 1, "history needs at least one slot per day");
  capacity_ = static_cast<std::size_t>(capacity_days);
  slots_ = static_cast<std::size_t>(slots_per_day);
  data_.assign((capacity_ + 1) * slots_, 0.0);
}

double HistoryMatrix::at_age(std::size_t age, std::size_t slot) const {
  SHEP_REQUIRE(age < stored_, "history age out of range");
  SHEP_REQUIRE(slot < slots_, "slot index out of range");
  // The capacity + 1 rows form a ring; yesterday sits one row behind today.
  const std::size_t rows = capacity_ + 1;
  const std::size_t row = (today_row_ + rows - 1 - age) % rows;
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
  stored_ = 0;
  today_row_ = 0;
  next_slot_ = 0;
  last_sample_ = 0.0;
  has_sample_ = false;
}

}  // namespace shep
