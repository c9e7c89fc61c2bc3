#include "mgmt/storage.hpp"

#include "common/check.hpp"

namespace shep {

void StorageParams::Validate() const {
  SHEP_REQUIRE(capacity_j > 0.0, "storage capacity must be positive");
  SHEP_REQUIRE(charge_efficiency > 0.0 && charge_efficiency <= 1.0,
               "charge efficiency must be in (0,1]");
  SHEP_REQUIRE(leakage_w >= 0.0, "leakage must be non-negative");
}

EnergyStorage::EnergyStorage(const StorageParams& params,
                             double initial_level_j)
    : params_(params), level_j_(initial_level_j) {
  params_.Validate();
  SHEP_REQUIRE(initial_level_j >= 0.0 && initial_level_j <= params.capacity_j,
               "initial level must be within capacity");
}

}  // namespace shep
