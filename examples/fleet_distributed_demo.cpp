// fleet_distributed_demo — the plan → partial → merge pipeline end to end.
//
// Builds a shard plan for a fleet scenario, executes it as N independent
// RunFleetShards partial runs (round-robin shard assignment, the way a
// coordinator would hand shards to worker machines), pushes every partial
// through its text serialization — the exact bytes that would cross a
// process boundary — parses them back, merges, and PROVES the assembled
// summary equals the monolithic single-process RunFleet bit for bit
// (table, CSV, and integer totals).
//
// With --procs N the simulation is real: RunFleetCoordinated spawns N
// shep_fleet_worker processes, streams the checksummed frames back over
// pipes, and merges — the same bit-identity proof over actual process
// boundaries.  --chaos additionally SIGKILLs the first worker as soon as it
// is spawned, so the shards dispatched to it are reassigned, to show the
// reassignment path recovering without changing a byte.
//
// A shared TraceCache stands in for a per-machine trace store: workers
// whose shards read the same weather lanes synthesize each lane once.
//
// With a trace directory the run also streams node telemetry: one
// selectively-persisted trace file per shard lands there, ready for
// `shep_trace list|slots|days` — the pipeline the CI telemetry smoke step
// exercises.
//
// Usage: fleet_distributed_demo [workers] [nodes_per_cell] [trace_dir]
//                               [--procs N] [--chaos] [--faults]
//                               [--csv FILE]
//        (defaults: 3 in-process workers, 4 nodes per cell, tracing off)
//
// --faults switches on a canned fault-injection spec (node outages, sensor
// dropout, panel decay, battery aging) so the bit-identity proof also
// covers the graceful-degradation channel; --csv FILE archives the merged
// summary CSV (the CI faulted-campaign smoke step uploads it).
#include <csignal>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "fleet/coord.hpp"
#include "fleet/partial.hpp"
#include "fleet/runner.hpp"
#include "fleet/shard_plan.hpp"
#include "fleet/trace_cache.hpp"
#include "trace/sink.hpp"

namespace {

/// The demo's proof: table, CSV, and the integer totals all agree.
bool BitIdentical(const shep::FleetSummary& a, const shep::FleetSummary& b) {
  bool identical = a.ToTable() == b.ToTable() && a.ToCsv() == b.ToCsv();
  for (std::size_t i = 0; identical && i < a.stats.size(); ++i) {
    identical = a.stats[i].violations == b.stats[i].violations &&
                a.stats[i].scored_slots == b.stats[i].scored_slots;
  }
  return identical;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace shep;

  std::size_t procs = 0;  // 0 = simulated workers in this process.
  bool chaos = false;
  bool faults = false;
  std::string csv_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--procs") {
      const std::optional<long long> n =
          i + 1 < argc ? ParseInt(argv[++i]) : std::nullopt;
      if (!n || *n <= 0) {
        throw std::invalid_argument("--procs needs a positive integer");
      }
      procs = static_cast<std::size_t>(*n);
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--faults") {
      faults = true;
    } else if (arg == "--csv") {
      if (i + 1 >= argc) {
        throw std::invalid_argument("--csv needs a file path");
      }
      csv_path = argv[++i];
    } else {
      positional.push_back(arg);
    }
  }
  const auto positional_int = [&](std::size_t index,
                                  std::size_t fallback) -> std::size_t {
    if (positional.size() <= index) return fallback;
    const std::optional<long long> n = ParseInt(positional[index]);
    if (!n || *n <= 0) {
      throw std::invalid_argument("'" + positional[index] +
                                  "' is not a positive integer");
    }
    return static_cast<std::size_t>(*n);
  };
  const std::size_t workers = positional_int(0, 3);
  const std::string trace_dir = positional.size() > 2 ? positional[2] : "";

  ScenarioSpec spec;
  spec.name = "fleet_distributed_demo";
  spec.sites = {"HSU", "ORNL", "PFCI"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.alpha = 0.7;
  wcma.wcma.days = 10;
  wcma.wcma.slots_k = 2;
  PredictorSpec wcma_fixed = wcma;
  wcma_fixed.kind = PredictorKind::kWcmaFixed;
  PredictorSpec persistence;
  persistence.kind = PredictorKind::kPersistence;
  spec.predictors = {wcma, wcma_fixed, persistence};
  spec.storage_tiers_j = {1500.0, 6000.0};
  spec.nodes_per_cell = positional_int(1, 4);
  spec.days = 30;
  spec.slots_per_day = 48;
  spec.seed = 0xD157;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 20;
  spec.initial_level_jitter = 0.2;
  if (faults) {
    // A canned degraded deployment: roughly one multi-hour outage per node
    // per five days, a dropout burst every other day, and slow panel/
    // battery wear.  The fault spec rides the scenario (and its Describe()
    // text through the coordinator), so the bit-identity proofs below
    // cover the graceful-degradation channel end to end.
    spec.name += "_faulted";
    spec.faults.outage_rate_per_day = 0.2;
    spec.faults.outage_mean_slots = 6.0;
    spec.faults.dropout_rate_per_day = 0.5;
    spec.faults.dropout_mean_slots = 4.0;
    spec.faults.panel_decay_per_day = 0.001;
    spec.faults.battery_aging_per_day = 0.002;
  }

  // ---- Stage 1: one deterministic plan every process can rebuild. --------
  const ShardPlan plan = BuildShardPlan(spec, /*shard_size=*/5);
  std::cout << "plan: " << plan.shards.size() << " shards over "
            << plan.matrix.nodes.size() << " nodes, " << plan.lanes.size()
            << " weather lanes, fingerprint " << plan.fingerprint << "\n\n";

  // ---- Multi-process mode: the coordinator does stages 2+3 for real. -----
  if (procs > 0) {
#ifndef SHEP_FLEET_WORKER_PATH
    std::cerr << "--procs needs the shep_fleet_worker path compiled in\n";
    return 1;
#else
    FleetCoordOptions coord;
    coord.worker_path = SHEP_FLEET_WORKER_PATH;
    coord.workers = procs;
    coord.shard_size = 5;
    coord.trace_dir = trace_dir;
    if (chaos) {
      // Kill the first worker as soon as it exists: its shards come back
      // to the survivors and the merge must not notice.
      coord.on_spawn = [](std::size_t spawn, long pid) {
        if (spawn == 0) ::kill(static_cast<pid_t>(pid), SIGKILL);
      };
    }
    FleetCoordStats stats;
    const FleetSummary merged = RunFleetCoordinated(spec, coord, &stats);
    std::cout << "coordinator: " << stats.workers_spawned << " spawned, "
              << stats.workers_died << " died, " << stats.workers_killed
              << " killed, " << stats.respawns << " respawns, "
              << stats.shards_reassigned << " shards reassigned\n"
              << "frames: " << stats.frames_accepted << " accepted, "
              << stats.duplicate_frames << " duplicate, "
              << stats.corrupt_frames << " corrupt\n"
              << "workers: " << stats.lanes_synthesized << " lanes synthesized"
              << " (plan has " << plan.lanes.size() << "), "
              << stats.predictor_runs << " predictor passes (plan has "
              << plan.matrix.nodes.size() << " nodes), synth "
              << stats.worker_synth_seconds << " s, sim "
              << stats.worker_sim_seconds << " s\n\n";

    const FleetSummary monolithic = RunFleet(spec);
    const bool identical = BitIdentical(merged, monolithic);
    std::cout << merged.ToTable() << '\n';
    std::cout << "coordinated (" << procs << " worker processes"
              << (chaos ? ", chaos" : "") << ") vs monolithic RunFleet: "
              << (identical ? "bit-identical" : "DIVERGED") << '\n';
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      if (!out) throw std::runtime_error("cannot write " + csv_path);
      out << merged.ToCsv();
      std::cout << "csv: " << csv_path << '\n';
    }
    return identical ? 0 : 1;
#endif
  }

  // ---- Stage 2: N independent partial runs (round-robin assignment). -----
  ThreadPool pool;
  TraceCache cache;
  FleetRunOptions options;
  options.pool = &pool;
  options.trace_cache = &cache;

  // Optional telemetry: every worker's shards stream through one sink, so
  // the directory ends up with plan.shards.size() files that shep_trace
  // can query per shard or joined.
  std::unique_ptr<TraceSink> sink;
  if (!trace_dir.empty()) {
    TraceSinkOptions sink_options;
    sink_options.directory = trace_dir;
    sink = std::make_unique<TraceSink>(sink_options);
    options.trace_sink = sink.get();
  }

  std::vector<std::vector<std::size_t>> assignment(workers);
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    assignment[i % workers].push_back(i);
  }

  std::vector<std::string> wire;  // the serialized partials "in flight".
  for (std::size_t w = 0; w < assignment.size(); ++w) {
    if (assignment[w].empty()) continue;  // more workers than shards.
    FleetRunStats info;
    const FleetPartial partial =
        RunFleetShards(plan, assignment[w], options, &info);
    wire.push_back(partial.Serialize());
    std::cout << "worker " << w << ": " << info.shards << " shards, "
              << partial.nodes_simulated << " nodes, " << info.unique_traces
              << " lanes (" << info.trace_cache_hits << " cache hits, "
              << info.trace_cache_misses << " misses), "
              << wire.back().size() << " bytes serialized\n";
    if (sink) {
      std::cout << "  telemetry: " << info.trace_events << " events, "
                << info.trace_dropped << " dropped, "
                << info.trace_slot_records << " slot records, "
                << info.trace_day_records << " day summaries, "
                << info.trace_shard_files << " files\n";
    }
  }
  const TraceCache::Stats cache_stats = cache.stats();
  std::cout << "trace cache: " << cache_stats.entries << " entries, "
            << cache_stats.hits << " hits, " << cache_stats.misses
            << " misses\n";
  if (sink) {
    const TraceSinkStats ts = sink->stats();
    std::cout << "trace sink: " << ts.shard_files << " files in "
              << sink->options().directory << " (" << ts.events
              << " events, " << ts.dropped << " dropped)\n";
  }
  std::cout << '\n';

  // ---- Stage 3: parse the wire bytes back and merge in plan order. -------
  std::vector<FleetPartial> partials;
  for (const std::string& text : wire) {
    partials.push_back(FleetPartial::Parse(text));
  }
  const FleetSummary merged = MergeFleetPartials(plan, partials);

  // ---- Proof: the monolithic run produces the same bits. -----------------
  // Untraced on purpose: it covers every shard, so a shared sink would
  // rewrite the distributed run's files (same fingerprint, same names) —
  // and the equality below proving tracing changed nothing is the point.
  FleetRunOptions monolithic_options = options;
  monolithic_options.trace_sink = nullptr;
  const FleetSummary monolithic = RunFleet(spec, monolithic_options);
  const bool identical = BitIdentical(merged, monolithic);

  std::cout << merged.ToTable() << '\n';
  std::cout << "distributed (" << partials.size()
            << " serialized partial runs) vs monolithic RunFleet: "
            << (identical ? "bit-identical" : "DIVERGED") << '\n';
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) throw std::runtime_error("cannot write " + csv_path);
    out << merged.ToCsv();
    std::cout << "csv: " << csv_path << '\n';
  }
  return identical ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "fleet_distributed_demo: " << e.what()
            << "\nUsage: fleet_distributed_demo [workers] [nodes_per_cell]"
               " [trace_dir] [--procs N] [--chaos] [--faults] [--csv FILE]\n";
  return 1;
}
