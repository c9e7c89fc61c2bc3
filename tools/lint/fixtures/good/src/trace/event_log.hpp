// GOOD: trace-layer telemetry record staying inside its DAG slice
// (common + report), with a [[nodiscard]] Deserialize entry point.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "report/table.hpp"

namespace shep {

struct EventLogEntry {
  std::uint64_t slot = 0;
  double value = 0.0;

  void Serialize(std::ostream& os) const;
  [[nodiscard]] static EventLogEntry Deserialize(std::istream& is);
};

}  // namespace shep
