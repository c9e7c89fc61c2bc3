#include "fleet/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "fleet/faults.hpp"
#include "fleet/forecast_replay.hpp"
#include "mgmt/node_sim.hpp"
#include "mgmt/node_sim_kernel.hpp"
#include "solar/clearsky.hpp"
#include "solar/sites.hpp"
#include "solar/synth.hpp"
#include "timeseries/slotting.hpp"
#include "trace/probe.hpp"

namespace shep {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

NodeSimResult SimulateSpecNode(const PredictorSpec& spec, int slots_per_day,
                               const SlotSeries& series,
                               const NodeSimConfig& config) {
  return WithPredictor(spec, slots_per_day, [&](auto& predictor) {
    return SimulateNodeKernel(predictor, series, config);
  });
}

FleetPartial RunFleetShards(const ShardPlan& plan,
                            const std::vector<std::size_t>& shard_subset,
                            const FleetRunOptions& options,
                            FleetRunStats* stats) {
  SHEP_REQUIRE(!shard_subset.empty(), "shard subset must not be empty");
  std::vector<std::size_t> subset = shard_subset;
  std::sort(subset.begin(), subset.end());
  SHEP_REQUIRE(subset.back() < plan.shards.size(),
               "shard index out of range for the plan");
  SHEP_REQUIRE(std::adjacent_find(subset.begin(), subset.end()) ==
                   subset.end(),
               "shard subset must not repeat a shard");

  // A healthy run records once each (lane, design) pair that several of
  // the memo's nodes read, and replays the recording to each of them
  // (ForecastMemo).  Without a caller's memo, the call's own subset is the
  // memo's whole world.
  std::optional<ForecastMemo> local_memo;
  if (options.forecast_memo == nullptr) local_memo.emplace(plan, subset);
  ForecastMemo& memo =
      options.forecast_memo != nullptr ? *options.forecast_memo : *local_memo;
  SHEP_REQUIRE(memo.plan_fingerprint() == plan.fingerprint,
               "forecast memo belongs to a different plan");
  memo.BeginCall(subset);
  const std::size_t recordings_before = memo.recordings();

  const ScenarioMatrix& matrix = plan.matrix;
  const ScenarioSpec& s = matrix.spec;  // slot_seconds already forced.

  // ---- Phase 1: synthesize the weather lanes this subset reads. -----------
  // Lanes are keyed (site, replica) — see ShardPlan::lanes — so all
  // predictor/storage cells of a site share traces (paired comparison) and
  // the synthesis cost is at most sites × replicas, not cells × replicas.
  // A subset run only pays for the lanes its own nodes touch.  Each lane
  // is synthesized straight into its SlotSeries (SynthesizeSlotSeries), so
  // a worker never holds a lane's full-resolution samples.
  std::vector<std::shared_ptr<const SlotSeries>> series(plan.lanes.size());
  std::vector<std::size_t> needed;
  {
    std::vector<bool> lane_needed(plan.lanes.size(), false);
    for (std::size_t shard : subset) {
      const ShardRange& range = plan.shards[shard];
      for (std::size_t i = range.begin_node; i < range.end_node; ++i) {
        lane_needed[matrix.trace_lane(matrix.nodes[i])] = true;
      }
    }
    for (std::size_t l = 0; l < lane_needed.size(); ++l) {
      if (lane_needed[l]) needed.push_back(l);
    }
  }

  // Hit/miss tallies are counted per lookup, NOT diffed from the cache's
  // global stats(): the cache is shared state, and concurrent runs would
  // show up in each other's deltas.
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  // The clear-sky memo is hit inside synthesis, not per lookup here, so
  // its tallies ARE stats() diffs, exact for the usual one-run-at-a-time
  // process and documented approximate otherwise (runner.hpp).
  const ClearSkyMemoStats clearsky_before = GetClearSkyMemoStats();
  // One synthesis scratch per batch worker: lanes sharing a worker id run
  // serialized, so each slot's one-day buffers are reused race-free across
  // every lane (and day) that worker synthesizes.  Scratch placement never
  // affects values, only allocation traffic.
  std::vector<SynthScratch> scratch(
      ParallelWorkerCount(options.pool, needed.size()));
  auto t0 = std::chrono::steady_clock::now();
  ParallelForWorker(options.pool, needed.size(),
                    [&](std::size_t worker, std::size_t n) {
    const TraceLanePlan& lane = plan.lanes[needed[n]];
    if (options.trace_cache != nullptr) {
      bool hit = false;
      series[lane.lane] = options.trace_cache->Get(
          lane.site_code, lane.trace_seed, s.days, s.slots_per_day, &hit,
          &scratch[worker]);
      (hit ? cache_hits : cache_misses).fetch_add(1,
                                                  std::memory_order_relaxed);
    } else {
      SynthOptions synth;
      synth.days = s.days;
      synth.seed_offset = lane.trace_seed;
      series[lane.lane] = std::make_shared<const SlotSeries>(
          SynthesizeSlotSeries(SiteByCode(lane.site_code), synth,
                               s.slots_per_day, scratch[worker]));
    }
    if (options.on_progress) options.on_progress();
  });
  const double synth_seconds = SecondsSince(t0);

  // ---- Phase 2: sharded node simulation. ----------------------------------
  // Shard boundaries come from the plan — a pure function of (node count,
  // shard_size) — so the pool only decides which thread runs which shard.
  // Nodes are cell-major: a shard's accumulators form a short run of
  // consecutive cells, kept per shard (never pre-merged across shards) so
  // the final fold can always happen in plan order.
  FleetPartial partial;
  partial.scenario_name = s.name;
  partial.plan_fingerprint = plan.fingerprint;
  partial.shards.resize(subset.size());

  // Opt-in telemetry: announce the run to the sink and give every batch
  // worker a shard writer — shards sharing a worker run serialized, so
  // each writer's buffers are reused race-free.  Stats are snapshotted so
  // a shared sink reports per-run deltas.
  TraceSink* const sink = options.trace_sink;
  TraceSinkStats sink_before;
  std::vector<TraceSink::ShardWriter> trace_writers;
  if (sink != nullptr) {
    TraceRunContext context;
    context.scenario_name = s.name;
    context.fingerprint = plan.fingerprint;
    context.slots_per_day = static_cast<std::uint32_t>(s.slots_per_day);
    context.days = static_cast<std::uint32_t>(s.days);
    context.cells.reserve(matrix.cells.size());
    for (const ScenarioCell& cell : matrix.cells) {
      context.cells.push_back({static_cast<std::uint64_t>(cell.index),
                               cell.site_code, cell.predictor_label,
                               cell.storage_j});
    }
    sink->BeginRun(context);
    trace_writers.resize(ParallelWorkerCount(options.pool, subset.size()));
    sink_before = sink->stats();
  }

  // Fault injection is a spec-level opt-in: a zero FaultSpec takes the
  // healthy NoFaultModel instantiation, reproducing fault-free results bit
  // for bit.  Schedules are built OUTSIDE the kernel (BuildFaultSchedule
  // allocates; the kernel must not) into one reusable scratch per batch
  // worker — shards sharing a worker run serialized, so the buffers are
  // race-free, and schedule placement never affects values (every window
  // is pure (spec, node.fault_seed) index math).
  const bool faulted = s.faults.any();
  std::vector<FaultSchedule> fault_scratch(
      faulted ? ParallelWorkerCount(options.pool, subset.size()) : 0);
  std::atomic<std::size_t> own_passes{0};

  t0 = std::chrono::steady_clock::now();
  // Worker-indexed so a traced run can use its worker's shard writer: each
  // shard runs whole on one worker (the ParallelForWorker contract), which
  // traces and writes it there.  Untraced runs take the identical schedule
  // (ParallelFor is ParallelForWorker minus the id), so the summary cannot
  // depend on it.
  ParallelForWorker(options.pool, subset.size(),
                    [&](std::size_t worker, std::size_t n) {
    const ShardRange& range = plan.shards[subset[n]];
    ShardCells& local = partial.shards[n];
    local.shard = range.index;
    TraceSink::ShardWriter* const trace =
        sink != nullptr ? &trace_writers[worker] : nullptr;
    if (trace != nullptr) trace->BeginShard(*sink, range.index);
    for (std::size_t i = range.begin_node; i < range.end_node; ++i) {
      const FleetNodeConfig& node = matrix.nodes[i];
      const ScenarioCell& cell = matrix.cells[node.cell];
      const PredictorSpec& design = s.predictors[cell.predictor_index];
      const SlotSeries& lane = *series[matrix.trace_lane(node)];

      NodeSimConfig config = s.node;
      config.storage.capacity_j = cell.storage_j;
      config.initial_level_fraction = node.initial_level_fraction;

      // The kernel run on a predictor built by WithPredictor or
      // WithReplay, so every kind dispatches statically.  With NoSlotProbe
      // the probe call sites vanish and this IS the untraced hot path;
      // with NodeTraceProbe each slot is pushed into the worker's trace
      // distiller.  Likewise NoFaultModel compiles the fault branches away
      // entirely.  Neither hook feeds back into the healthy simulation.
      auto simulate = [&](auto& predictor, auto fault_model) {
        if (trace == nullptr) {
          return SimulateNodeKernel(predictor, lane, config, NoSlotProbe{},
                                    fault_model);
        }
        const NodeTraceProbe probe = trace->Probe(node.index, node.cell);
        NodeSimResult traced =
            SimulateNodeKernel(predictor, lane, config, probe, fault_model);
        trace->EndNode();
        return traced;
      };
      NodeSimResult result;
      if (const RecordedForecast* const shared = memo.Acquire(node, lane)) {
        result = WithReplay(*shared, [&](auto& replay) {
          return simulate(replay, NoFaultModel{});
        });
        memo.Release(node);
      } else {
        own_passes.fetch_add(1, std::memory_order_relaxed);
        if (faulted) {
          BuildFaultSchedule(s.faults, node.fault_seed, s.days,
                             s.slots_per_day, fault_scratch[worker]);
        }
        result = WithPredictor(design, s.slots_per_day, [&](auto& predictor) {
          return faulted
                     ? simulate(predictor, FaultModel(fault_scratch[worker]))
                     : simulate(predictor, NoFaultModel{});
        });
      }

      if (local.cells.empty() || local.cells.back().first != node.cell) {
        local.cells.emplace_back(node.cell, CellAccumulator{});
      }
      local.cells.back().second.Add(result);
      if (options.on_progress) options.on_progress();
    }
    if (trace != nullptr) trace->EndShard();
  });
  const double sim_seconds = SecondsSince(t0);

  partial.nodes_simulated = 0;
  for (std::size_t shard : subset) {
    partial.nodes_simulated += plan.shards[shard].node_count();
  }
  partial.predictor_runs =
      own_passes.load() + (memo.recordings() - recordings_before);
  partial.synth_seconds = synth_seconds;
  partial.sim_seconds = sim_seconds;

  if (stats != nullptr) {
    stats->threads =
        options.pool != nullptr ? options.pool->thread_count() : 1;
    stats->shards = subset.size();
    stats->unique_traces = needed.size();
    stats->predictor_runs = partial.predictor_runs;
    stats->synth_seconds = synth_seconds;
    stats->sim_seconds = sim_seconds;
    stats->trace_cache_hits = cache_hits.load();
    stats->trace_cache_misses = cache_misses.load();
    const ClearSkyMemoStats clearsky_after = GetClearSkyMemoStats();
    stats->clearsky_hits = clearsky_after.hits - clearsky_before.hits;
    stats->clearsky_misses = clearsky_after.misses - clearsky_before.misses;
    if (sink != nullptr) {
      const TraceSinkStats after = sink->stats();
      stats->trace_events = after.events - sink_before.events;
      stats->trace_dropped = after.dropped - sink_before.dropped;
      stats->trace_slot_records =
          after.slot_records - sink_before.slot_records;
      stats->trace_day_records = after.day_records - sink_before.day_records;
      stats->trace_shard_files = after.shard_files - sink_before.shard_files;
    }
  }
  return partial;
}

FleetSummary MergeFleetPartials(const ShardPlan& plan,
                                const std::vector<FleetPartial>& partials) {
  // Index every shard reduction by plan shard, rejecting foreign partials
  // and duplicate coverage up front.
  std::vector<const ShardCells*> by_shard(plan.shards.size(), nullptr);
  for (const FleetPartial& partial : partials) {
    SHEP_REQUIRE(partial.plan_fingerprint == plan.fingerprint,
                 "partial belongs to a different plan (fingerprint "
                 "mismatch): " + partial.scenario_name);
    for (const ShardCells& shard : partial.shards) {
      SHEP_REQUIRE(shard.shard < plan.shards.size(),
                   "partial carries a shard index outside the plan");
      SHEP_REQUIRE(by_shard[shard.shard] == nullptr,
                   "shard covered by more than one partial: " +
                       std::to_string(shard.shard));
      by_shard[shard.shard] = &shard;
    }
  }
  for (std::size_t i = 0; i < by_shard.size(); ++i) {
    SHEP_REQUIRE(by_shard[i] != nullptr,
                 "partials do not cover plan shard " + std::to_string(i));
  }

  // Fold in plan (shard-index) order: the sequence is independent of how
  // shards were grouped into partials, which is what makes the merged
  // summary bit-identical to the single-process run.
  const ScenarioSpec& s = plan.matrix.spec;
  FleetSummary summary;
  summary.scenario_name = s.name;
  summary.node_count = plan.matrix.nodes.size();
  summary.days = s.days;
  summary.slots_per_day = s.slots_per_day;
  summary.cells = plan.matrix.cells;
  summary.stats.assign(plan.matrix.cells.size(), CellAccumulator{});
  for (const ShardCells* shard : by_shard) {
    for (const auto& [cell, acc] : shard->cells) {
      SHEP_REQUIRE(cell < summary.stats.size(),
                   "partial carries a cell index outside the plan");
      summary.stats[cell].Merge(acc);
    }
  }
  return summary;
}

FleetSummary RunFleet(const ScenarioSpec& spec, const FleetRunOptions& options,
                      FleetRunStats* stats) {
  const ShardPlan plan = BuildShardPlan(spec, options.shard_size);
  std::vector<std::size_t> all(plan.shards.size());
  std::iota(all.begin(), all.end(), 0);
  // Not brace-init: initializer_list elements are const, so {std::move(p)}
  // would silently deep-copy every accumulator of the run.
  std::vector<FleetPartial> partials;
  partials.push_back(RunFleetShards(plan, all, options, stats));
  const auto t0 = std::chrono::steady_clock::now();
  FleetSummary summary = MergeFleetPartials(plan, partials);
  if (stats != nullptr) stats->merge_seconds = SecondsSince(t0);
  return summary;
}

}  // namespace shep
