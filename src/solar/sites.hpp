// sites.hpp — the six deployment sites evaluated by the paper (Table I).
//
// The paper selects six NREL MIDC stations that "demonstrate variety in
// solar energy profile variations":
//
//   SPMD (CO, 5-min), ECSU (NC, 5-min), ORNL (TN, 1-min),
//   HSU (CA, 1-min), NPCS (NV, 1-min), PFCI (AZ, 1-min).
//
// We cannot ship the proprietary station exports, so each site is a
// parameter set for the synthetic weather process (src/solar/weather.hpp)
// at the station's real latitude and recording resolution.  The weather
// parameters are tuned so the sites' *relative* prediction difficulty
// matches the paper's Table III ordering: the desert stations PFCI and NPCS
// are the most predictable (lowest MAPE), the convective/mixed-climate
// stations ORNL and SPMD the least.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "solar/weather.hpp"

namespace shep {

/// Static description of a measurement site.
struct SiteProfile {
  std::string code;        ///< data-set code used in the paper's tables.
  std::string location;    ///< US state, as in Table I.
  double latitude_deg;     ///< station latitude (drives solar geometry).
  int resolution_s;        ///< recording resolution: 60 or 300 seconds.
  double panel_area_m2;    ///< harvester panel area.
  double panel_efficiency; ///< end-to-end conversion efficiency.
  std::uint64_t seed;      ///< deterministic per-site stream seed.
  WeatherParams weather;   ///< stochastic climate of the site.
};

/// The six paper sites, in Table I order (SPMD, ECSU, ORNL, HSU, NPCS,
/// PFCI).  Deterministic: always returns identical profiles.
const std::vector<SiteProfile>& PaperSites();

/// Looks up a paper site by code; throws std::invalid_argument for unknown
/// codes.
const SiteProfile& SiteByCode(const std::string& code);

}  // namespace shep
