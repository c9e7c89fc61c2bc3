// fleet_demo — a 1000+-node heterogeneous fleet in one deterministic run.
//
// Expands a declarative scenario — 3 sites of contrasting climate × 6
// predictor designs × 3 storage tiers × 28 replica nodes = 1512 nodes —
// and executes it through the sharded fleet runner, then prints the
// per-cell summary as an aligned table and as CSV.  The per-site blocks
// reproduce the paper's premise at fleet scale: the worse the predictor's
// MAPE, the more brown-outs and wasted harvest the fleet suffers, and the
// smaller the storage tier, the steeper that penalty.
//
// The WCMA design is deployed on all three arithmetic backends — float
// reference, Q16.16 fixed point, and the MicroVm-executed routine — so the
// table shows the paper's whole trade-off in one place: near-identical
// accuracy columns across the backends, with the MCU-cost columns
// (cyc_mean/cyc_p95/ops_mean) filled only for the two deployable builds.
//
// Usage: fleet_demo [nodes_per_cell] [days]   (defaults 28, 120)
#include <cstddef>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "fleet/runner.hpp"
#include "fleet/trace_cache.hpp"

int main(int argc, char** argv) try {
  using namespace shep;

  // "12abc" and "-1" are typos, not 12 and 2^64 - 1.
  const auto positive_arg = [&](int index,
                                std::size_t fallback) -> std::size_t {
    if (argc <= index) return fallback;
    const std::optional<long long> n = ParseInt(argv[index]);
    if (!n || *n <= 0) {
      throw std::invalid_argument(std::string("'") + argv[index] +
                                  "' is not a positive integer");
    }
    return static_cast<std::size_t>(*n);
  };

  ScenarioSpec spec;
  spec.name = "fleet_demo";
  // Hard (convective), medium (coastal, 5-min logger), easy (desert).
  spec.sites = {"ORNL", "ECSU", "PFCI"};

  PredictorSpec wcma;  // the paper's guideline configuration.
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.alpha = 0.7;
  wcma.wcma.days = 10;
  wcma.wcma.slots_k = 2;
  PredictorSpec wcma_fixed = wcma;  // same design, MCU arithmetic backends.
  wcma_fixed.kind = PredictorKind::kWcmaFixed;
  PredictorSpec wcma_vm = wcma;
  wcma_vm.kind = PredictorKind::kWcmaVm;
  PredictorSpec ewma;
  ewma.kind = PredictorKind::kEwma;
  PredictorSpec ar;
  ar.kind = PredictorKind::kAr;
  PredictorSpec persistence;
  persistence.kind = PredictorKind::kPersistence;
  spec.predictors = {wcma, wcma_fixed, wcma_vm, ewma, ar, persistence};

  // Under one night's reserve / a few hours / half a day of buffer.
  spec.storage_tiers_j = {1200.0, 4000.0, 12000.0};

  spec.nodes_per_cell = positive_arg(1, 28);
  spec.days = positive_arg(2, 120);
  spec.slots_per_day = 48;
  spec.seed = 0xF1EE7u;

  // Same node sizing as examples/node_simulation.cpp: the load is scaled so
  // the controller genuinely has to ration energy.
  spec.node.duty.active_power_w = 0.40;
  spec.node.duty.sleep_power_w = 5.0e-6;
  spec.node.duty.min_duty = 0.05;
  spec.node.duty.level_gain = 0.10;
  spec.node.storage.charge_efficiency = 0.85;
  spec.node.storage.leakage_w = 20.0e-6;
  spec.node.warmup_days = 20;
  spec.initial_level_jitter = 0.25;  // nodes deployed at different charge.

  ThreadPool pool;
  TraceCache cache;
  FleetRunOptions options;
  options.pool = &pool;
  options.trace_cache = &cache;
  FleetRunStats info;
  const FleetSummary summary = RunFleet(spec, options, &info);

  std::cout << summary.ToTable() << '\n';
  std::cout << "nodes=" << summary.node_count << " cells="
            << summary.cells.size() << " unique_traces="
            << info.unique_traces << " predictor_runs="
            << info.predictor_runs << " shards=" << info.shards
            << " threads=" << info.threads << '\n';
  std::cout << "phases: synth_s=" << info.synth_seconds << " sim_s="
            << info.sim_seconds << " merge_s=" << info.merge_seconds
            << "  trace_cache: hits=" << info.trace_cache_hits << " misses="
            << info.trace_cache_misses << "\n\n";
  std::cout << summary.ToCsv();
  return 0;
} catch (const std::exception& e) {
  // Bad CLI values surface here: a malformed or non-positive number from
  // positive_arg, a horizon inside the warm-up from ScenarioSpec::Validate.
  std::cerr << "fleet_demo: " << e.what()
            << "\nUsage: fleet_demo [nodes_per_cell] [days]\n";
  return 1;
}
