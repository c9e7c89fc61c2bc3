// GOOD: fleet-layer state whose parse/merge entry points are [[nodiscard]].
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

namespace shep {

struct CellState {
  std::size_t count = 0;
  double mean = 0.0;

  void Serialize(std::ostream& os) const;
  [[nodiscard]] static CellState Deserialize(std::istream& is);
};

[[nodiscard]] CellState ParseCellState(const std::string& text);

[[nodiscard]] CellState MergeCellStates(const CellState& a,
                                        const CellState& b);

}  // namespace shep
