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
    : history_(days, slots_per_day) {
  SHEP_REQUIRE(slots_per_day >= 2, "need at least two slots per day");
}

void SlotMovingAverage::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");
  history_.Observe(boundary_sample);
}

double SlotMovingAverage::PredictNext() const {
  SHEP_REQUIRE(history_.has_sample(), "PredictNext before any Observe");
  if (history_.stored_days() == 0) return history_.last_sample();
  return history_.Mu(history_.next_slot());
}

void SlotMovingAverage::Reset() { history_.Clear(); }

std::string SlotMovingAverage::Name() const {
  std::ostringstream os;
  os << "SlotMovingAverage(D=" << history_.capacity_days() << ")";
  return os.str();
}

// --------------------------------------------------------------- PreviousDay

PreviousDay::PreviousDay(int slots_per_day) : history_(1, slots_per_day) {
  SHEP_REQUIRE(slots_per_day >= 2, "need at least two slots per day");
}

void PreviousDay::Observe(double boundary_sample) {
  SHEP_REQUIRE(boundary_sample >= 0.0, "power sample must be non-negative");
  history_.Observe(boundary_sample);
}

double PreviousDay::PredictNext() const {
  SHEP_REQUIRE(history_.has_sample(), "PredictNext before any Observe");
  if (history_.stored_days() == 0) return history_.last_sample();
  return history_.at_age(0, history_.next_slot());
}

void PreviousDay::Reset() { history_.Clear(); }

}  // namespace shep
