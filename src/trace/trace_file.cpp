#include "trace/trace_file.hpp"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/serdes.hpp"

namespace shep {

namespace {

using serdes::Key;
using serdes::Line;

constexpr auto WalkTraceFile = [](auto& io, auto& f) {
  const auto field = [&io](auto& value) { io.Field(value); };
  Line(io, "shep-trace");
  Key(io, "v1");
  Line(io, "scenario", f.scenario_name);
  Line(io, "fingerprint", f.fingerprint);
  Line(io, "shard", f.shard);
  Line(io, "slots_per_day", f.slots_per_day);
  Line(io, "days", f.days);
  Line(io, "cells");
  io.List(f.cells, [&io](auto& cell) {
    Line(io, "cell", cell.cell, cell.site_code, cell.predictor_label,
         cell.storage_j);
  });
  Line(io, "records");
  io.List(f.records, field);
  Line(io, "day_records");
  io.List(f.day_records, field);
  Line(io, "dropped", f.dropped_events);
  Line(io, "end");
};

}  // namespace

void TraceShardFile::Serialize(std::ostream& os) const {
  serdes::Write(os, *this, WalkTraceFile);
}

TraceShardFile TraceShardFile::Parse(std::istream& stream) {
  // A file is the whole stream: it is read at once, so the bytes can be
  // compared with the file's Serialize() text below.
  std::ostringstream whole;
  whole << stream.rdbuf();
  const std::string text = std::move(whole).str();
  std::istringstream is(text);
  auto file = serdes::Read<TraceShardFile>(is, WalkTraceFile);
  // Every record is bounded by this horizon, so a reader's 32-bit slot
  // arithmetic (day × slots_per_day + slots_per_day) cannot wrap.
  const std::uint64_t horizon =
      std::uint64_t{file.days} * file.slots_per_day;
  SHEP_REQUIRE(horizon <= std::numeric_limits<std::uint32_t>::max(),
               "trace file horizon (days x slots_per_day) does not fit 32 "
               "bits: " + std::to_string(horizon));
  for (std::size_t c = 1; c < file.cells.size(); ++c) {
    SHEP_REQUIRE(file.cells[c - 1].cell < file.cells[c].cell,
                 "trace cells must be ascending by id");
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
  for (const TraceRecord& record : file.records) {
    SHEP_REQUIRE(record.slot < horizon,
                 "trace slot record past the file's horizon: slot " +
                     std::to_string(record.slot));
    require_declared(record.cell);
  }
  for (const TraceDayRecord& record : file.day_records) {
    SHEP_REQUIRE(record.day < file.days,
                 "trace day record past the file's days: day " +
                     std::to_string(record.day));
    SHEP_REQUIRE(record.slots <= file.slots_per_day,
                 "trace day record summarizes more slots than a day has: " +
                     std::to_string(record.slots));
    require_declared(record.cell);
  }
  // Each token reads back only in its one spelling; this also refuses what
  // lies between them (whitespace runs, tabs, a missing final newline) and
  // anything after the file.
  std::ostringstream again;
  file.Serialize(again);
  SHEP_REQUIRE(again.str() == text,
               "trace file text is not the Serialize() text of its file");
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
