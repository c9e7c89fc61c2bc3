#include "core/baselines.hpp"

#include <sstream>

#include "common/check.hpp"

namespace shep {

// ---------------------------------------------------------------- Persistence

void Persistence::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");
  last_sample_ = boundary_sample;
  has_sample_ = true;
}

double Persistence::PredictNext() const {
  SHEP_REQUIRE(has_sample_, "PredictNext before any Observe");
  return last_sample_;
}

void Persistence::Reset() {
  last_sample_ = 0.0;
  has_sample_ = false;
}

// --------------------------------------------------------- SlotMovingAverage

SlotMovingAverage::SlotMovingAverage(int days, int slots_per_day)
    : days_(days),
      slots_per_day_(slots_per_day),
      history_(static_cast<std::size_t>(days),
               static_cast<std::size_t>(slots_per_day)) {
  SHEP_REQUIRE(days_ >= 1, "D must be >= 1");
  SHEP_REQUIRE(slots_per_day_ >= 2, "need at least two slots per day");
  current_day_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
}

void SlotMovingAverage::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");
  current_day_[next_slot_] = boundary_sample;
  last_sample_ = boundary_sample;
  has_sample_ = true;
  ++next_slot_;
  if (next_slot_ == static_cast<std::size_t>(slots_per_day_)) {
    history_.PushDay(current_day_);
    next_slot_ = 0;
  }
}

double SlotMovingAverage::PredictNext() const {
  SHEP_REQUIRE(has_sample_, "PredictNext before any Observe");
  if (history_.stored_days() == 0) return last_sample_;
  return history_.Mu(next_slot_);
}

void SlotMovingAverage::Reset() {
  history_.Clear();
  current_day_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
  next_slot_ = 0;
  last_sample_ = 0.0;
  has_sample_ = false;
}

std::string SlotMovingAverage::Name() const {
  std::ostringstream os;
  os << "SlotMovingAverage(D=" << days_ << ")";
  return os.str();
}

// --------------------------------------------------------------- PreviousDay

PreviousDay::PreviousDay(int slots_per_day)
    : slots_per_day_(slots_per_day),
      history_(1, static_cast<std::size_t>(slots_per_day)) {
  SHEP_REQUIRE(slots_per_day_ >= 2, "need at least two slots per day");
  current_day_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
}

void PreviousDay::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");
  current_day_[next_slot_] = boundary_sample;
  last_sample_ = boundary_sample;
  has_sample_ = true;
  ++next_slot_;
  if (next_slot_ == static_cast<std::size_t>(slots_per_day_)) {
    history_.PushDay(current_day_);
    next_slot_ = 0;
  }
}

double PreviousDay::PredictNext() const {
  SHEP_REQUIRE(has_sample_, "PredictNext before any Observe");
  if (history_.stored_days() == 0) return last_sample_;
  return history_.at_age(0, next_slot_);
}

void PreviousDay::Reset() {
  history_.Clear();
  current_day_.assign(static_cast<std::size_t>(slots_per_day_), 0.0);
  next_slot_ = 0;
  last_sample_ = 0.0;
  has_sample_ = false;
}

}  // namespace shep
