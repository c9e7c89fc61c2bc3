// bench_fleet — fleet-runner throughput, emitted as timing JSON, with a
// regression gate.
//
// Runs the same scenario serially and on a full thread pool and reports
// per-stage wall times (weather synthesis vs node simulation), per-stage
// throughput, the parallel speedup, and the advisory cost of attaching a
// stats-only TraceSink as a single JSON object on stdout,
// so CI can archive the file (BENCH_fleet.json) and the perf trajectory of
// the batch layer is tracked across PRs.  A standalone main rather than a
// google-benchmark binary: the measured region is seconds long, needs no
// statistical replication framework, and this way the target exists even
// where google-benchmark is not installed.
//
// Usage: bench_fleet [--fast] [--compare BASELINE.json] [--threshold PCT]
//
//   --fast            shrinks the fleet for CI.
//   --compare FILE    after measuring, gates against the baseline JSON:
//                     exits 1 when nodes_per_second regressed by more than
//                     the threshold (default 15 %).  Baselines from a
//                     different workload are rejected outright; baselines
//                     from a different machine class (thread-count
//                     mismatch) downgrade the gate to advisory — deltas
//                     reported, exit 0 — until the baseline is refreshed.
//                     The fresh JSON still goes to stdout first, so CI can
//                     archive it and the next PR's trajectory continues
//                     even when the gate trips.  Comparison goes to stderr.
//   --threshold PCT   regression tolerance for --compare, in percent.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/threadpool.hpp"
#include "fleet/coord.hpp"
#include "fleet/runner.hpp"
#include "fleet/trace_cache.hpp"
#include "trace/sink.hpp"

namespace {

/// Minimal extraction of `"key": <number>` from a flat JSON object — all
/// bench_fleet ever writes.  Returns false when the key is absent.
bool ExtractJsonNumber(const std::string& json, const std::string& key,
                       double* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  const char* start = json.c_str() + at + needle.size();
  char* end = nullptr;
  const double value = std::strtod(start, &end);
  if (end == start) return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace shep;

  bool fast = false;
  std::string compare_path;
  double threshold_pct = 15.0;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--fast") == 0) {
      fast = true;
    } else if (std::strcmp(argv[a], "--compare") == 0 && a + 1 < argc) {
      compare_path = argv[++a];
    } else if (std::strcmp(argv[a], "--threshold") == 0 && a + 1 < argc) {
      const char* arg = argv[++a];
      char* end = nullptr;
      threshold_pct = std::strtod(arg, &end);
      if (end == arg || *end != '\0' || !(threshold_pct >= 0.0) ||
          threshold_pct >= 100.0) {
        std::cerr << "bench_fleet: --threshold wants a percentage in "
                     "[0, 100), got \"" << arg << "\"\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_fleet [--fast] [--compare BASELINE.json]"
                   " [--threshold PCT]\n";
      return 2;
    }
  }

  ScenarioSpec spec;
  spec.name = fast ? "bench_fleet_fast" : "bench_fleet";
  spec.sites = {"ORNL", "ECSU", "PFCI"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.alpha = 0.7;
  wcma.wcma.days = 10;
  wcma.wcma.slots_k = 2;
  // The MCU backends keep the interpreted-VM and op-counted hot paths in
  // the measured mix, so their cost shows up in the perf trajectory too.
  PredictorSpec wcma_fixed = wcma;
  wcma_fixed.kind = PredictorKind::kWcmaFixed;
  PredictorSpec wcma_vm = wcma;
  wcma_vm.kind = PredictorKind::kWcmaVm;
  PredictorSpec ewma;
  ewma.kind = PredictorKind::kEwma;
  PredictorSpec persistence;
  persistence.kind = PredictorKind::kPersistence;
  spec.predictors = {wcma, wcma_fixed, wcma_vm, ewma, persistence};
  spec.storage_tiers_j = {1200.0, 4000.0, 12000.0};
  spec.nodes_per_cell = fast ? 8 : 40;
  spec.days = fast ? 45 : 120;
  spec.slots_per_day = 48;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 20;

  FleetRunStats serial_info;
  const FleetSummary serial = RunFleet(spec, {}, &serial_info);

  ThreadPool pool;
  FleetRunOptions parallel_options;
  parallel_options.pool = &pool;
  FleetRunStats parallel_info;
  const FleetSummary parallel = RunFleet(spec, parallel_options,
                                         &parallel_info);

  // The two runs must agree bit-for-bit (the runner's core invariant);
  // refuse to report timings for a broken build.  Compare the raw summary
  // fields exactly — a rendered-CSV comparison would hide sub-rounding
  // divergence.
  auto moments_equal = [](const StreamingMoments& a,
                          const StreamingMoments& b) {
    return a.count == b.count && a.mean == b.mean && a.m2 == b.m2 &&
           a.min == b.min && a.max == b.max;
  };
  bool identical = serial.stats.size() == parallel.stats.size();
  for (std::size_t i = 0; identical && i < serial.stats.size(); ++i) {
    const CellAccumulator& a = serial.stats[i];
    const CellAccumulator& b = parallel.stats[i];
    identical = moments_equal(a.violation_rate, b.violation_rate) &&
                moments_equal(a.mean_duty, b.mean_duty) &&
                moments_equal(a.wasted_fraction, b.wasted_fraction) &&
                moments_equal(a.min_soc, b.min_soc) &&
                moments_equal(a.mape, b.mape) &&
                moments_equal(a.cycles_per_wakeup, b.cycles_per_wakeup) &&
                moments_equal(a.ops_per_wakeup, b.ops_per_wakeup) &&
                moments_equal(a.availability, b.availability) &&
                moments_equal(a.post_recovery_violation_rate,
                              b.post_recovery_violation_rate) &&
                a.violation_hist.bins() == b.violation_hist.bins() &&
                a.cycles_hist.bins() == b.cycles_hist.bins() &&
                a.violations == b.violations &&
                a.scored_slots == b.scored_slots &&
                a.downtime_slots == b.downtime_slots &&
                a.recoveries == b.recoveries;
  }
  if (!identical) {
    std::cerr << "FATAL: serial and parallel summaries diverge\n";
    return 1;
  }

  // Trace-cache trajectory: the same scenario run cold (every lane
  // synthesized into the cache) and warm (every lane served from it).
  // Warm synth time is the cache's whole value proposition for campaigns
  // that re-run overlapping scenarios, so CI tracks both.
  TraceCache cache;
  FleetRunOptions cached_options;
  cached_options.pool = &pool;
  cached_options.trace_cache = &cache;
  FleetRunStats cold_info;
  const FleetSummary cold = RunFleet(spec, cached_options, &cold_info);
  FleetRunStats warm_info;
  const FleetSummary warm = RunFleet(spec, cached_options, &warm_info);
  if (cold.ToCsv() != serial.ToCsv() || warm.ToCsv() != serial.ToCsv()) {
    std::cerr << "FATAL: trace-cached summaries diverge\n";
    return 1;
  }
  if (warm_info.trace_cache_misses != 0) {
    std::cerr << "FATAL: warm run missed the trace cache\n";
    return 1;
  }

  // Telemetry overhead, priced honestly: the same parallel run with a
  // TraceSink attached in stats-only mode (empty directory — full probe
  // and policy cost, no disk noise).  Advisory JSON fields only; the
  // regression gate below still reads the untraced nodes_per_second, so
  // tracing cost shows up in the trajectory without ever tripping the
  // build.
  FleetRunOptions traced_options;
  traced_options.pool = &pool;
  TraceSink trace_sink;  // directory stays empty: stats-only.
  traced_options.trace_sink = &trace_sink;
  FleetRunStats traced_info;
  const FleetSummary traced = RunFleet(spec, traced_options, &traced_info);
  if (traced.ToCsv() != serial.ToCsv()) {
    std::cerr << "FATAL: traced summary diverges from untraced\n";
    return 1;
  }
  // The kernel offers days × slots_per_day − 1 slots per node to the
  // probe; the priced run must have kept every one.
  const std::uint64_t traced_slots =
      static_cast<std::uint64_t>(serial.node_count) *
      (static_cast<std::uint64_t>(spec.days) * spec.slots_per_day - 1);
  if (traced_info.trace_events != traced_slots) {
    std::cerr << "FATAL: traced run kept " << traced_info.trace_events
              << " of " << traced_slots << " slot events\n";
    return 1;
  }

  // Multi-process scaling: the same campaign through RunFleetCoordinated
  // at 1, 2, and 4 single-threaded workers, so the curve measures process
  // fan-out (spawn, pipes, frames, merge) and nothing else.  Each
  // merge must match the serial summary bit for bit.  Advisory JSON
  // fields; the regression gate stays on the in-process nodes_per_second.
  double coord_seconds[3] = {0.0, 0.0, 0.0};
#ifdef SHEP_FLEET_WORKER_PATH
  constexpr std::size_t kCoordWorkers[] = {1, 2, 4};
  for (int c = 0; c < 3; ++c) {
    FleetCoordOptions coord;
    coord.worker_path = SHEP_FLEET_WORKER_PATH;
    coord.workers = kCoordWorkers[c];
    coord.shard_size = FleetRunOptions{}.shard_size;
    const auto begin = std::chrono::steady_clock::now();
    const FleetSummary merged = RunFleetCoordinated(spec, coord);
    coord_seconds[c] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
    if (merged.ToCsv() != serial.ToCsv()) {
      std::cerr << "FATAL: coordinated summary diverges at "
                << kCoordWorkers[c] << " worker(s)\n";
      return 1;
    }
  }
#endif

  const double serial_s = serial_info.synth_seconds + serial_info.sim_seconds;
  const double parallel_s =
      parallel_info.synth_seconds + parallel_info.sim_seconds;
  const auto nodes = static_cast<double>(serial.node_count);
  // Per-stage throughput: lane-days/s for phase 1 (its work unit is one
  // synthesized day of one weather lane), nodes/s for phase 2.
  const double lane_days =
      static_cast<double>(parallel_info.unique_traces * spec.days);
  const double nodes_per_second =
      parallel_s > 0.0 ? nodes / parallel_s : 0.0;
  auto rate = [](double units, double seconds) {
    return seconds > 0.0 ? units / seconds : 0.0;
  };
  std::ostringstream json;
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"fleet\",\n"
       << "  \"mode\": \"" << (fast ? "fast" : "full") << "\",\n"
       << "  \"nodes\": " << serial.node_count << ",\n"
       << "  \"cells\": " << serial.cells.size() << ",\n"
       << "  \"days\": " << spec.days << ",\n"
       << "  \"unique_traces\": " << parallel_info.unique_traces << ",\n"
       << "  \"shards\": " << parallel_info.shards << ",\n"
       << "  \"threads\": " << parallel_info.threads << ",\n"
       << "  \"serial_seconds\": " << serial_s << ",\n"
       << "  \"serial_synth_seconds\": " << serial_info.synth_seconds << ",\n"
       << "  \"serial_sim_seconds\": " << serial_info.sim_seconds << ",\n"
       << "  \"serial_nodes_per_second\": " << rate(nodes, serial_s) << ",\n"
       << "  \"serial_synth_lane_days_per_second\": "
       << rate(lane_days, serial_info.synth_seconds) << ",\n"
       << "  \"serial_sim_nodes_per_second\": "
       << rate(nodes, serial_info.sim_seconds) << ",\n"
       << "  \"parallel_seconds\": " << parallel_s << ",\n"
       << "  \"parallel_synth_seconds\": " << parallel_info.synth_seconds
       << ",\n"
       << "  \"parallel_sim_seconds\": " << parallel_info.sim_seconds << ",\n"
       << "  \"parallel_synth_lane_days_per_second\": "
       << rate(lane_days, parallel_info.synth_seconds) << ",\n"
       << "  \"parallel_sim_nodes_per_second\": "
       << rate(nodes, parallel_info.sim_seconds) << ",\n"
       << "  \"speedup\": " << (parallel_s > 0.0 ? serial_s / parallel_s : 0.0)
       << ",\n"
       << "  \"nodes_per_second\": " << nodes_per_second << ",\n"
       << "  \"cache_cold_synth_seconds\": " << cold_info.synth_seconds
       << ",\n"
       << "  \"cache_warm_synth_seconds\": " << warm_info.synth_seconds
       << ",\n"
       << "  \"cache_hits\": " << warm_info.trace_cache_hits << ",\n"
       << "  \"cache_misses\": " << cold_info.trace_cache_misses << ",\n"
       << "  \"traced_sim_seconds\": " << traced_info.sim_seconds << ",\n"
       << "  \"traced_sim_nodes_per_second\": "
       << rate(nodes, traced_info.sim_seconds) << ",\n"
       << "  \"trace_overhead_pct\": "
       << (parallel_info.sim_seconds > 0.0
               ? 100.0 * traced_info.sim_seconds / parallel_info.sim_seconds -
                     100.0
               : 0.0)
       << ",\n"
       << "  \"trace_events\": " << traced_info.trace_events << ",\n"
       << "  \"trace_dropped\": " << traced_info.trace_dropped;
#ifdef SHEP_FLEET_WORKER_PATH
  json << ",\n"
       << "  \"coord_workers_1_seconds\": " << coord_seconds[0] << ",\n"
       << "  \"coord_workers_2_seconds\": " << coord_seconds[1] << ",\n"
       << "  \"coord_workers_4_seconds\": " << coord_seconds[2] << ",\n"
       << "  \"coord_speedup_2w\": "
       << (coord_seconds[1] > 0.0 ? coord_seconds[0] / coord_seconds[1] : 0.0)
       << ",\n"
       << "  \"coord_speedup_4w\": "
       << (coord_seconds[2] > 0.0 ? coord_seconds[0] / coord_seconds[2] : 0.0);
#else
  (void)coord_seconds;
#endif
  json << "\n}\n";
  std::cout << json.str();

  if (compare_path.empty()) return 0;

  // ---- Regression gate -----------------------------------------------------
  // The fresh JSON is already on stdout: a tripped gate fails the build but
  // never hides the measurement that tripped it.
  std::ifstream baseline_file(compare_path);
  if (!baseline_file) {
    std::cerr << "FATAL: cannot read baseline " << compare_path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << baseline_file.rdbuf();
  const std::string baseline = buffer.str();

  double base_nps = 0.0;
  if (!ExtractJsonNumber(baseline, "nodes_per_second", &base_nps) ||
      base_nps <= 0.0) {
    std::cerr << "FATAL: baseline " << compare_path
              << " has no usable nodes_per_second\n";
    return 1;
  }
  // The gate only means something when both sides measured the same
  // workload: a fast-mode run compared against a full-mode baseline (or a
  // baseline from a differently shaped scenario) would trip or pass on
  // the workload difference, not a regression.
  for (const char* key : {"nodes", "cells", "days"}) {
    double base_value = 0.0;
    double current = 0.0;
    if (!ExtractJsonNumber(baseline, key, &base_value) ||
        !ExtractJsonNumber(json.str(), key, &current) ||
        base_value != current) {
      std::cerr << "FATAL: baseline " << compare_path << " measured \"" << key
                << "\" = " << base_value << " but this run measured "
                << current << " — different workloads are not comparable "
                << "(fast vs full mode?)\n";
      return 1;
    }
  }
  // A thread-count mismatch means the baseline came from different
  // hardware, and a wall-clock threshold across machines measures the
  // hardware change, not the code: the comparison downgrades to advisory
  // (deltas still printed, exit 0) until the baseline is refreshed from
  // this machine class — the README recommends committing the CI artifact
  // of a green run, after which thread counts match and the gate arms.
  bool advisory = false;
  {
    double base_threads = 0.0;
    if (ExtractJsonNumber(baseline, "threads", &base_threads) &&
        base_threads != static_cast<double>(parallel_info.threads)) {
      advisory = true;
      std::cerr << "compare: WARNING baseline used " << base_threads
                << " thread(s), this run used " << parallel_info.threads
                << " — cross-machine comparison, reporting deltas without "
                << "gating; refresh the baseline from this machine class\n";
    }
  }
  // Context lines (informational): how each stage moved.
  for (const char* key :
       {"serial_synth_seconds", "serial_sim_seconds", "parallel_seconds"}) {
    double base_value = 0.0;
    double current = 0.0;
    if (ExtractJsonNumber(baseline, key, &base_value) &&
        ExtractJsonNumber(json.str(), key, &current) && base_value > 0.0) {
      std::cerr << "compare: " << key << " " << base_value << " -> "
                << current << " (" << (100.0 * current / base_value - 100.0)
                << " %)\n";
    }
  }
  const double change_pct = 100.0 * nodes_per_second / base_nps - 100.0;
  std::cerr << "compare: nodes_per_second " << base_nps << " -> "
            << nodes_per_second << " (" << change_pct << " %), threshold -"
            << threshold_pct << " %\n";
  if (nodes_per_second < base_nps * (1.0 - threshold_pct / 100.0)) {
    if (advisory) {
      std::cerr << "compare: below threshold, but ADVISORY only "
                   "(cross-machine baseline)\n";
      return 0;
    }
    std::cerr << "FATAL: nodes_per_second regressed beyond the threshold\n";
    return 1;
  }
  std::cerr << "compare: PASS\n";
  return 0;
}
