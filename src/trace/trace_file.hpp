// trace_file.hpp — the on-disk unit of fleet telemetry: one file per
// shard, keyed by the plan fingerprint.
//
// A distributed run writes its traces the same way it writes its
// summaries: per shard, so any subset of workers produces files that can
// be queried alone or joined with the rest.  The fingerprint in the header
// (and the file name) is the same plan fingerprint FleetPartials carry —
// the query layer refuses to join files from different plans, exactly as
// MergeFleetPartials refuses mismatched partials.
//
// Everything is exact text: ids as decimal integers, doubles as serdes
// hexfloats.  Write→Parse round-trips bit-identically.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace shep {

/// Cell metadata embedded in each trace file so queries can filter by
/// site / predictor without re-expanding the scenario.
struct TraceCellInfo {
  std::uint64_t cell = 0;
  std::string site_code;
  std::string predictor_label;
  double storage_j = 0.0;
};

/// One shard's persisted telemetry.
struct TraceShardFile {
  std::string scenario_name;
  std::uint64_t fingerprint = 0;   ///< ShardPlan fingerprint.
  std::uint64_t shard = 0;         ///< ShardRange::index.
  std::uint32_t slots_per_day = 0;
  std::uint32_t days = 0;
  /// Cells that own at least one node of this shard, ascending by id.
  std::vector<TraceCellInfo> cells;
  /// Full-resolution records, node-major then slot-ascending.
  std::vector<TraceRecord> records;
  /// Coarse summaries for the slots the policy did not keep.
  std::vector<TraceDayRecord> day_records;
  /// The v1 footer's drop count.  The sink keeps every event and writes
  /// 0; the field stays so the format, and every file, is unchanged.
  std::uint64_t dropped_events = 0;

  /// Exact text form ("shep-trace v1 ..." through "end").
  void Serialize(std::ostream& os) const;
  /// Reads the whole stream as one file.  Throws std::invalid_argument on
  /// text that is not the Serialize() text of what it parsed, and on a
  /// file whose days × slots_per_day exceeds 32 bits or whose records fall
  /// outside that horizon, a day, or the declared cells.
  [[nodiscard]] static TraceShardFile Parse(std::istream& is);

  /// Canonical file name: trace-<fingerprint:016x>-shard<index>.shtr —
  /// fingerprint-keyed so shards of different plans never collide in one
  /// directory, and a joined query can glob one plan's files.
  static std::string FileName(std::uint64_t fingerprint, std::uint64_t shard);
};

}  // namespace shep
