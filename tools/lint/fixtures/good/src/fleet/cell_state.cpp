// GOOD: the memo table is unordered but carries a justified waiver: it is
// looked up by key only, never iterated, so its order can't reach an
// accumulator.
#include "fleet/cell_state.hpp"

#include <ostream>
#include <unordered_map>  // shep-lint: allow(determinism-unordered) key lookups only; nothing ever iterates this table

namespace shep {

namespace serdes {
void WriteDouble(std::ostream& os, double value);
}

void CellState::Serialize(std::ostream& os) const {
  os << "cell " << count << ' ';
  serdes::WriteDouble(os, mean);
  os << '\n';
}

double LookupCalibration(int site) {
  static const std::unordered_map<int, double> kBySite =  // shep-lint: allow(determinism-unordered) key lookups only; nothing ever iterates this table
      {{0, 1.0}, {1, 0.97}};
  const auto it = kBySite.find(site);
  return it == kBySite.end() ? 1.0 : it->second;
}

}  // namespace shep
