#include "trace/trace_file.hpp"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <limits>
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
  // Every record below is bounded by this horizon, so a reader's 32-bit
  // slot arithmetic (day × slots_per_day + slots_per_day) cannot wrap.
  const std::uint64_t horizon =
      std::uint64_t{file.days} * file.slots_per_day;
  SHEP_REQUIRE(horizon <= std::numeric_limits<std::uint32_t>::max(),
               "trace file horizon (days x slots_per_day) does not fit 32 "
               "bits: " + std::to_string(horizon));
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
  // Cells are ascending by id (checked above), so a lookup is a search.
  auto require_declared = [&file](std::uint64_t cell) {
    const auto it = std::lower_bound(
        file.cells.begin(), file.cells.end(), cell,
        [](const TraceCellInfo& info, std::uint64_t id) {
          return info.cell < id;
        });
    SHEP_REQUIRE(it != file.cells.end() && it->cell == cell,
                 "trace record references a cell the file does not "
                 "declare: " + std::to_string(cell));
  };
  serdes::ExpectToken(is, "records");
  const std::uint64_t record_count = serdes::ReadU64(is);
  for (std::uint64_t r = 0; r < record_count; ++r) {
    const TraceRecord record = TraceRecord::Deserialize(is);
    SHEP_REQUIRE(record.slot < horizon,
                 "trace slot record past the file's horizon: slot " +
                     std::to_string(record.slot));
    require_declared(record.cell);
    file.records.push_back(record);
  }
  serdes::ExpectToken(is, "day_records");
  const std::uint64_t day_count = serdes::ReadU64(is);
  for (std::uint64_t r = 0; r < day_count; ++r) {
    const TraceDayRecord record = TraceDayRecord::Deserialize(is);
    SHEP_REQUIRE(record.day < file.days,
                 "trace day record past the file's days: day " +
                     std::to_string(record.day));
    SHEP_REQUIRE(record.slots <= file.slots_per_day,
                 "trace day record summarizes more slots than a day has: " +
                     std::to_string(record.slots));
    require_declared(record.cell);
    file.day_records.push_back(record);
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
