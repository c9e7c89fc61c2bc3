#include "mgmt/duty_cycle.hpp"

#include "common/check.hpp"

namespace shep {

void DutyCycleConfig::Validate() const {
  SHEP_REQUIRE(slot_seconds > 0.0, "slot length must be positive");
  SHEP_REQUIRE(active_power_w > 0.0, "active power must be positive");
  SHEP_REQUIRE(sleep_power_w >= 0.0 && sleep_power_w < active_power_w,
               "sleep power must be below active power");
  SHEP_REQUIRE(min_duty >= 0.0 && min_duty <= max_duty && max_duty <= 1.0,
               "duty bounds must satisfy 0 <= min <= max <= 1");
  SHEP_REQUIRE(target_level_fraction >= 0.0 && target_level_fraction <= 1.0,
               "storage setpoint must be a fraction");
  SHEP_REQUIRE(level_gain >= 0.0 && level_gain <= 1.0,
               "level gain must be in [0,1]");
}

DutyCycleController::DutyCycleController(const DutyCycleConfig& config)
    : config_(config) {
  config_.Validate();
}

}  // namespace shep
