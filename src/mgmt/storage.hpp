// storage.hpp — energy storage (battery / supercapacitor) model.
//
// The predictor exists to serve harvested-energy management (paper Fig. 1):
// a controller that matches the application's consumption to the incoming
// energy through a finite store.  This model captures the non-idealities
// the paper's introduction lists as constraints: finite capacity (overflow
// wastes harvest), charge inefficiency, and leakage.
#pragma once

#include <algorithm>

#include "common/check.hpp"

namespace shep {

/// Parameters of the store.
struct StorageParams {
  double capacity_j = 500.0;        ///< usable capacity.
  double charge_efficiency = 0.85;  ///< fraction of inflow actually stored.
  double leakage_w = 10.0e-6;       ///< self-discharge power.

  void Validate() const;
};

/// Stateful energy store with conservation accounting.
class EnergyStorage {
 public:
  EnergyStorage(const StorageParams& params, double initial_level_j);

  const StorageParams& params() const { return params_; }
  double level_j() const { return level_j_; }
  double fraction() const { return level_j_ / params_.capacity_j; }

  // Charge, Discharge and Leak run on every slot of the node-sim kernel;
  // they are inline so the level stays in a register across the slot.

  /// Adds harvested energy through the charger; returns the amount that
  /// could not be stored (overflow when full).
  double Charge(double energy_j) {
    SHEP_REQUIRE(energy_j >= 0.0, "charge energy must be non-negative");
    const double stored_candidate = energy_j * params_.charge_efficiency;
    const double space = params_.capacity_j - level_j_;
    const double stored = std::min(stored_candidate, space);
    level_j_ += stored;
    total_charged_j_ += stored;
    // Overflow is reported in harvested joules (what was lost at the
    // panel), so convert the unstorable fraction back through the
    // efficiency.
    const double overflow =
        (stored_candidate - stored) / params_.charge_efficiency;
    total_overflow_j_ += overflow;
    return overflow;
  }

  /// Draws energy; returns the amount actually delivered (may be less than
  /// requested when the store runs empty).
  double Discharge(double energy_j) {
    SHEP_REQUIRE(energy_j >= 0.0, "discharge energy must be non-negative");
    const double delivered = std::min(energy_j, level_j_);
    level_j_ -= delivered;
    total_delivered_j_ += delivered;
    return delivered;
  }

  /// Applies self-discharge over `seconds`.
  void Leak(double seconds) {
    SHEP_REQUIRE(seconds >= 0.0, "leak duration must be non-negative");
    level_j_ = std::max(0.0, level_j_ - params_.leakage_w * seconds);
  }

  /// Re-rates the usable capacity (battery aging in the fleet fault
  /// model).  Charge above an aged capacity becomes unusable and is
  /// dropped from the level — capacity fade is not overflow, so the
  /// lifetime counters are untouched.  Inline and allocation-free: the
  /// node-sim kernel calls it per day.
  void SetCapacity(double capacity_j) {
    SHEP_REQUIRE(capacity_j > 0.0, "storage capacity must be positive");
    params_.capacity_j = capacity_j;
    level_j_ = std::min(level_j_, capacity_j);
  }

  /// Lifetime accounting (joules).
  double total_overflow_j() const { return total_overflow_j_; }
  double total_delivered_j() const { return total_delivered_j_; }
  double total_charged_j() const { return total_charged_j_; }

 private:
  StorageParams params_;
  double level_j_;
  double total_overflow_j_ = 0.0;
  double total_delivered_j_ = 0.0;
  double total_charged_j_ = 0.0;
};

}  // namespace shep
