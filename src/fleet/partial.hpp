// partial.hpp — the mergeable unit of a distributed fleet run.
//
// Stage 2 of the pipeline (RunFleetShards) executes a subset of a
// ShardPlan's shards and reduces each shard into per-cell
// CellAccumulators.  A FleetPartial packages those shard results with
// enough identity (plan fingerprint) and run metadata (nodes, predictor
// passes, wall times)
// that stage 3 (MergeFleetPartials) can fold ANY grouping of partials —
// one per shard, one per machine, or one for the whole plan — into the
// same FleetSummary, bit-identical to the single-process run.
//
// Two properties carry that guarantee:
//  * granularity — a partial keeps its accumulators PER SHARD, never
//    pre-merged across shards, so the merge can always fold in plan
//    (shard-index) order no matter how shards were grouped into partials;
//  * exact serialization — Serialize/Parse round-trip every double as a
//    hexfloat and every count as an integer, so a partial that crossed a
//    process boundary as text merges bit-identically to one that stayed
//    in memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fleet/aggregate.hpp"

namespace shep {

/// The reduction of one shard: accumulators for the short run of
/// consecutive cells its nodes belong to, in first-touch (node) order.
struct ShardCells {
  std::size_t shard = 0;  ///< plan shard index.
  std::vector<std::pair<std::size_t, CellAccumulator>> cells;
};

/// Result of one RunFleetShards call over a shard subset.
struct FleetPartial {
  std::string scenario_name;
  /// Identity of the plan this partial belongs to; MergeFleetPartials
  /// rejects partials whose fingerprint disagrees with the plan's.
  std::uint64_t plan_fingerprint = 0;
  std::size_t nodes_simulated = 0;
  /// Predictor passes this run made (FleetRunStats::predictor_runs):
  /// metadata like the wall times, never part of the summary.
  std::size_t predictor_runs = 0;
  double synth_seconds = 0.0;  ///< phase-1 wall time of this run.
  double sim_seconds = 0.0;    ///< phase-2 wall time of this run.
  /// Per-shard reductions, ascending by shard index.
  std::vector<ShardCells> shards;

  /// Text form; exact (see file comment).
  std::string Serialize() const;

  /// Inverse of Serialize.  Throws std::invalid_argument on any text that
  /// is not exactly the Serialize() text of the partial it parses to.
  [[nodiscard]] static FleetPartial Parse(const std::string& text);
};

}  // namespace shep
