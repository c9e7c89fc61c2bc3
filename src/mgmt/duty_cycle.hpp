// duty_cycle.hpp — prediction-driven adaptive duty-cycle control.
//
// The "intelligent controller" of the paper's Fig. 1, in the style of
// Kansal et al. [2]: each slot, budget the application's active time so
// that expected consumption tracks the PREDICTED incoming energy, with a
// proportional correction that steers the store back toward a setpoint.
// This is the consumer that makes prediction accuracy matter: the node
// simulator (node_sim.hpp) quantifies how much performance a worse
// predictor costs.
#pragma once

#include "common/check.hpp"
#include "common/mathutil.hpp"

namespace shep {

/// Static configuration of the controlled node.
struct DutyCycleConfig {
  double slot_seconds = 1800.0;   ///< control period (= prediction horizon).
  double active_power_w = 0.060;  ///< node power when duty-cycled on.
  double sleep_power_w = 4.2e-6;  ///< node power when idle (LPM3-class).
  double min_duty = 0.02;         ///< availability floor demanded by the app.
  double max_duty = 1.0;
  double target_level_fraction = 0.5;  ///< storage setpoint.
  double level_gain = 0.05;  ///< fraction of the level error corrected/slot.

  void Validate() const;
};

/// Stateless controller: maps (predicted energy, storage state) to a duty
/// cycle for the upcoming slot.  DutyForSlot and ConsumptionJ run on every
/// slot of the node-sim kernel, so they are inline.
class DutyCycleController {
 public:
  explicit DutyCycleController(const DutyCycleConfig& config);

  const DutyCycleConfig& config() const { return config_; }

  /// \param predicted_harvest_j  predictor's energy estimate for the slot
  ///                             (ê × T).
  /// \param level_j              current storage level.
  /// \param capacity_j           storage capacity.
  /// \returns duty cycle in [min_duty, max_duty].
  double DutyForSlot(double predicted_harvest_j, double level_j,
                     double capacity_j) const {
    SHEP_REQUIRE(predicted_harvest_j >= 0.0,
                 "predicted harvest must be non-negative");
    SHEP_REQUIRE(capacity_j > 0.0, "capacity must be positive");
    SHEP_REQUIRE(level_j >= 0.0 && level_j <= capacity_j,
                 "level must be within capacity");
    // Energy-neutral budget: spend what we expect to harvest, plus a
    // proportional share of the storage-level error (above setpoint ->
    // spend more, below -> conserve).
    const double setpoint_j = config_.target_level_fraction * capacity_j;
    const double budget_j = predicted_harvest_j +
                            config_.level_gain * (level_j - setpoint_j);
    const double sleep_j = config_.sleep_power_w * config_.slot_seconds;
    const double swing_j = (config_.active_power_w - config_.sleep_power_w) *
                           config_.slot_seconds;
    const double duty = (budget_j - sleep_j) / swing_j;
    return Clamp(duty, config_.min_duty, config_.max_duty);
  }

  /// Energy the node consumes in one slot at duty `d`.
  double ConsumptionJ(double duty) const {
    SHEP_REQUIRE(duty >= 0.0 && duty <= 1.0, "duty must be in [0,1]");
    return (config_.sleep_power_w +
            duty * (config_.active_power_w - config_.sleep_power_w)) *
           config_.slot_seconds;
  }

 private:
  DutyCycleConfig config_;
};

}  // namespace shep
