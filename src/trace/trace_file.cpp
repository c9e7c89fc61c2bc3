#include "trace/trace_file.hpp"

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/serdes.hpp"

namespace shep {

void TraceShardFile::Serialize(std::ostream& os) const {
  SHEP_REQUIRE(scenario_name.find_first_of(" \t\n") == std::string::npos,
               "scenario names must be whitespace-free to serialize");
  os << "shep-trace v1\n";
  os << "scenario " << scenario_name << '\n';
  os << "fingerprint " << fingerprint << '\n';
  os << "shard " << shard << '\n';
  os << "slots_per_day " << slots_per_day << '\n';
  os << "days " << days << '\n';
  os << "cells " << cells.size() << '\n';
  for (const TraceCellInfo& cell : cells) {
    SHEP_REQUIRE(cell.site_code.find_first_of(" \t\n") == std::string::npos &&
                     cell.predictor_label.find_first_of(" \t\n") ==
                         std::string::npos,
                 "cell labels must be whitespace-free to serialize");
    os << "cell " << cell.cell << ' ' << cell.site_code << ' '
       << cell.predictor_label << ' ';
    serdes::WriteDouble(os, cell.storage_j);
    os << '\n';
  }
  os << "records " << records.size() << '\n';
  for (const TraceRecord& r : records) r.Serialize(os);
  os << "day_records " << day_records.size() << '\n';
  for (const TraceDayRecord& r : day_records) r.Serialize(os);
  os << "dropped " << dropped_events << '\n';
  os << "end\n";
}

TraceShardFile TraceShardFile::Parse(std::istream& is) {
  serdes::ExpectToken(is, "shep-trace");
  serdes::ExpectToken(is, "v1");
  TraceShardFile file;
  serdes::ExpectToken(is, "scenario");
  is >> file.scenario_name;
  SHEP_REQUIRE(!file.scenario_name.empty(),
               "trace file is missing its scenario name");
  serdes::ExpectToken(is, "fingerprint");
  file.fingerprint = serdes::ReadU64(is);
  serdes::ExpectToken(is, "shard");
  file.shard = serdes::ReadU64(is);
  serdes::ExpectToken(is, "slots_per_day");
  file.slots_per_day = serdes::ReadU32(is);
  serdes::ExpectToken(is, "days");
  file.days = serdes::ReadU32(is);
  serdes::ExpectToken(is, "cells");
  const std::uint64_t cell_count = serdes::ReadU64(is);
  for (std::uint64_t c = 0; c < cell_count; ++c) {
    serdes::ExpectToken(is, "cell");
    TraceCellInfo cell;
    cell.cell = serdes::ReadU64(is);
    SHEP_REQUIRE(c == 0 || file.cells.back().cell < cell.cell,
                 "trace cells must be ascending by id");
    is >> cell.site_code >> cell.predictor_label;
    SHEP_REQUIRE(static_cast<bool>(is), "truncated trace cell entry");
    cell.storage_j = serdes::ReadDouble(is);
    file.cells.push_back(std::move(cell));
  }
  serdes::ExpectToken(is, "records");
  const std::uint64_t record_count = serdes::ReadU64(is);
  for (std::uint64_t r = 0; r < record_count; ++r) {
    file.records.push_back(TraceRecord::Deserialize(is));
  }
  serdes::ExpectToken(is, "day_records");
  const std::uint64_t day_count = serdes::ReadU64(is);
  for (std::uint64_t r = 0; r < day_count; ++r) {
    file.day_records.push_back(TraceDayRecord::Deserialize(is));
  }
  serdes::ExpectToken(is, "dropped");
  file.dropped_events = serdes::ReadU64(is);
  serdes::ExpectToken(is, "end");
  return file;
}

std::string TraceShardFile::FileName(std::uint64_t fingerprint,
                                     std::uint64_t shard) {
  std::ostringstream os;
  os << "trace-" << std::hex << std::setw(16) << std::setfill('0')
     << fingerprint << std::dec << "-shard" << shard << ".shtr";
  return os.str();
}

}  // namespace shep
