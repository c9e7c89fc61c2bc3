// runner.hpp — the fleet execution pipeline: plan → partial(s) → merge.
//
// A fleet run is three stages, each usable on its own so the work can be
// split across processes or machines:
//
//  1. BuildShardPlan (fleet/shard_plan) — deterministically decomposes the
//     expanded scenario into fixed-size node shards and weather-trace
//     lanes;
//  2. RunFleetShards — executes ANY subset of the plan's shards: the
//     subset's lanes are synthesized day by day into their slot series
//     (SynthesizeSlotSeries; or fetched from an optional TraceCache,
//     which builds them the same way) and each shard reduces its nodes into private per-cell
//     accumulators with no locking or sharing on the hot path.  The result
//     is a FleetPartial whose text serialization can cross a process
//     boundary exactly;
//  3. MergeFleetPartials — folds partials covering the whole plan back
//     into a FleetSummary, always in plan (shard-index) order.
//
// Because shard boundaries depend only on (node count, shard_size), the
// fold order never depends on scheduling, thread counts, or how shards
// were grouped into partials — so a summary assembled from N serialized
// partial runs is bit-identical to the single-process RunFleet, which is
// itself just the three stages glued together.  That invariant is what
// tests/test_fleet.cpp and tests/test_fleet_distributed.cpp pin and what
// lets distributed runs (shards on different machines) reproduce
// single-machine results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/threadpool.hpp"
#include "fleet/aggregate.hpp"
#include "fleet/forecast_replay.hpp"
#include "fleet/partial.hpp"
#include "fleet/scenario.hpp"
#include "fleet/shard_plan.hpp"
#include "fleet/trace_cache.hpp"
#include "trace/sink.hpp"

namespace shep {

/// Execution knobs; none of them may change the summary, only its speed.
struct FleetRunOptions {
  /// Pool to run on; null executes serially on the calling thread.
  ThreadPool* pool = nullptr;
  /// Nodes per shard.  Small shards balance better, large shards amortize
  /// accumulator setup; the summary is identical either way as long as the
  /// value itself is held fixed.  (Read by RunFleet when it builds the
  /// plan; RunFleetShards takes the plan's value.)
  std::size_t shard_size = 8;
  /// Optional shared weather-lane memo: campaigns that re-run overlapping
  /// scenarios synthesize each lane once.  Results are bit-identical with
  /// and without it; only phase-1 wall time changes.
  TraceCache* trace_cache = nullptr;
  /// Optional recorded-forecast memo (fleet/forecast_replay.hpp) kept
  /// across calls over one plan, so the storage tiers of a design share
  /// one predictor pass even when they arrive in separate calls, as
  /// shep_fleet_worker's one-shard jobs do.  Null: the call shares only
  /// among its own shards.  Results are bit-identical either way.
  ForecastMemo* forecast_memo = nullptr;
  /// Opt-in telemetry: when set, the worker running a shard records every
  /// simulated slot, distills each node through the selective-persistence
  /// policy and writes the shard's trace file (trace/sink.hpp).  Strictly
  /// observational — the summary is byte-identical with and without it
  /// (pinned by tests/test_trace_sink.cpp); only wall time changes.
  TraceSink* trace_sink = nullptr;
  /// Optional progress hook, called once per weather lane the subset reads
  /// (after it is synthesized or fetched from the cache) and once per node
  /// simulated, on the thread that did that work — so concurrently from
  /// the pool's workers when a pool is set.  Observational like the sink:
  /// the partial is identical with and without it.  shep_fleet_worker
  /// heartbeats from it.
  std::function<void()> on_progress;
};

/// Runtime metadata of one run; kept out of FleetSummary so summaries stay
/// comparable across machines and thread counts.
struct FleetRunStats {
  std::size_t threads = 1;
  std::size_t shards = 0;         ///< shards executed by this run.
  std::size_t unique_traces = 0;  ///< lanes this run's shards read.
  /// Predictor passes phase 2 made: one per (lane, design) pair recorded
  /// plus one per node that ran its own predictor.  Deterministic in
  /// (plan, shard subset, memo history); equals the node count when
  /// nothing is shared.
  std::size_t predictor_runs = 0;
  double synth_seconds = 0.0;     ///< phase 1 wall time.
  double sim_seconds = 0.0;       ///< phase 2 wall time, tracing included
                                  ///< (merge excluded — stage 3 may run in
                                  ///< another process).
  double merge_seconds = 0.0;     ///< stage 3 wall time (RunFleet only;
                                  ///< stays 0 for bare RunFleetShards).
  /// TraceCache counter deltas of this run (0 when no cache was given).
  std::uint64_t trace_cache_hits = 0;
  std::uint64_t trace_cache_misses = 0;
  /// Process-wide clear-sky memo deltas over this run (solar/clearsky.hpp).
  /// Approximate under concurrent runs in one process — the memo is shared
  /// — but exact for the common one-run-at-a-time case.
  std::uint64_t clearsky_hits = 0;
  std::uint64_t clearsky_misses = 0;
  /// Telemetry deltas of this run (all 0 when no trace sink was given).
  std::uint64_t trace_events = 0;        ///< slot events observed.
  std::uint64_t trace_dropped = 0;       ///< always 0: every event is kept.
  std::uint64_t trace_slot_records = 0;  ///< full-resolution records kept.
  std::uint64_t trace_day_records = 0;   ///< coarse day summaries kept.
  std::uint64_t trace_shard_files = 0;   ///< trace files finalized.
};

/// Stage 2: executes the plan's shards listed in `shard_subset` (any
/// order; duplicates rejected) and returns their reductions.  The partial
/// is deterministic in (plan, shard_subset) — pool and cache only change
/// wall time.
///
/// Shared forecasts.  No predictor reads the node's storage, so in a
/// healthy run (`!spec.faults.any()`) every storage tier of one (weather
/// lane, predictor design) pair gets the same forecast.  A pair that two or
/// more nodes of the ForecastMemo read is run ONCE: its first node to start
/// records the predictor's pass, siblings on other pool threads wait for
/// it rather than recompute, and every node of the pair runs the one
/// kernel, SimulateNodeKernel, on a replay of that recording.  The pair's
/// last node frees it.  Without `options.forecast_memo` the call builds a
/// memo for its own subset; a caller that runs a plan one shard at a time
/// (shep_fleet_worker) passes one memo to every call, and its later tiers
/// replay what an earlier call recorded.  The memory bound is stated on
/// ForecastMemo.  Results are bit-identical to one predictor pass per node
/// (pinned by tests/test_fleet_distributed.cpp), and faulted nodes keep
/// one pass each (their fault schedules make every forecast their own).
FleetPartial RunFleetShards(const ShardPlan& plan,
                            const std::vector<std::size_t>& shard_subset,
                            const FleetRunOptions& options = {},
                            FleetRunStats* stats = nullptr);

/// Simulates one node of a cell: builds `spec`'s predictor on the stack
/// through WithPredictor and runs it over `series` through the
/// static-dispatch kernel (mgmt/node_sim_kernel.hpp) at its concrete type.
/// Every PredictorKind takes this path — no per-slot virtual calls, no
/// per-run dynamic_cast, no heap allocation for the predictor.
/// Bit-identical to Make() + the virtual SimulateNode for every kind,
/// cost channel included (pinned by tests/test_node_kernel.cpp), and to
/// the replayed run RunFleetShards gives a node whose forecast it shares.
NodeSimResult SimulateSpecNode(const PredictorSpec& spec, int slots_per_day,
                               const SlotSeries& series,
                               const NodeSimConfig& config);

/// Stage 3: folds partials that together cover the plan exactly once into
/// the final summary, in plan order.  Throws std::invalid_argument when a
/// partial's fingerprint disagrees with the plan or the partials miss or
/// duplicate a shard.
[[nodiscard]] FleetSummary MergeFleetPartials(
    const ShardPlan& plan, const std::vector<FleetPartial>& partials);

/// Single-process convenience: the three stages glued together.
/// Deterministic in (spec, shard_size).
FleetSummary RunFleet(const ScenarioSpec& spec,
                      const FleetRunOptions& options = {},
                      FleetRunStats* stats = nullptr);

}  // namespace shep
