// shard_plan.hpp — stage 1 of the distributed fleet pipeline.
//
// BuildShardPlan turns a ScenarioSpec into a ShardPlan: the expanded
// matrix plus (a) the fixed-size shard ranges over the cell-major node
// list and (b) the weather-trace lanes the shards read.  The plan is a
// pure function of (spec, shard_size) — no clocks, no thread counts — so
// every process of a distributed run rebuilds the identical plan from the
// spec text it is handed.
//
// The plan's fingerprint hashes every field of the spec's text form
// (ScenarioSpec::Hash), the shard size and the lane table.  It is folded
// into every FleetPartial produced by RunFleetShards; MergeFleetPartials
// refuses partials whose fingerprint disagrees, so results of a different
// spec, seed, or shard size can never be silently merged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/scenario.hpp"

namespace shep {

/// One contiguous run of nodes, executed as a unit.  Boundaries are a pure
/// function of (node count, shard_size), never of scheduling.
struct ShardRange {
  std::size_t index = 0;       ///< position in ShardPlan::shards.
  std::size_t begin_node = 0;  ///< first node id (inclusive).
  std::size_t end_node = 0;    ///< past-the-end node id.

  std::size_t node_count() const { return end_node - begin_node; }
};

/// One weather-trace lane: lanes are keyed (site, replica) — all
/// predictor/storage cells of a site share them (paired design) — and this
/// record is everything a worker (or the TraceCache) needs to synthesize
/// the lane's SlotSeries.
struct TraceLanePlan {
  std::size_t lane = 0;       ///< position in ShardPlan::lanes.
  std::string site_code;      ///< solar/sites code.
  std::uint64_t trace_seed = 0;
};

/// Stage-1 output: the expanded matrix plus its shard/lane decomposition.
struct ShardPlan {
  ScenarioMatrix matrix;
  std::size_t shard_size = 0;
  std::uint64_t fingerprint = 0;  ///< identity of (spec, shard_size).
  std::vector<ShardRange> shards;
  std::vector<TraceLanePlan> lanes;  ///< index == lane id.
};

/// Expands `spec` and decomposes it into shards of `shard_size` nodes.
/// Deterministic in (spec, shard_size); throws via ScenarioSpec::Validate
/// on a malformed spec and on shard_size == 0.
ShardPlan BuildShardPlan(const ScenarioSpec& spec, std::size_t shard_size = 8);

}  // namespace shep
