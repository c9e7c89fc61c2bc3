// Differential parity across the three WCMA backends: double-precision
// reference (core/Wcma), Q16.16 fixed point (core/FixedWcma via
// hw/CostedFixedWcma), and the MicroVm-executed routine
// (hw/VmWcmaPredictor).  "Same algorithm" is a value claim, so the tests
// bound the value divergence — per slot on a shared series and per cell
// (MAPE delta on paired fleet weather) — and pin the runner's core
// invariant for the new backends: summaries, including the MCU-cost
// aggregates, are bit-identical at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/threadpool.hpp"
#include "core/wcma.hpp"
#include "fleet/runner.hpp"
#include "hw/costed_fixed.hpp"
#include "hw/vm_predictor.hpp"
#include "solar/sites.hpp"
#include "solar/synth.hpp"
#include "timeseries/slotting.hpp"

namespace shep {
namespace {

/// Envelope of |prediction_a − prediction_b| over a shared series.
struct BackendDivergence {
  std::size_t slots = 0;      ///< predictions compared (after skip).
  double max_abs_w = 0.0;     ///< worst slot divergence, watts.
  double mean_abs_w = 0.0;    ///< average slot divergence, watts.
  double max_rel_peak = 0.0;  ///< max_abs_w normalised by the series peak.
};

/// Runs both predictors over every slot of `series` (each is Reset()
/// first) and measures the per-slot prediction divergence.  `skip_slots`
/// excludes the leading warm-up slots where backends intentionally differ
/// (e.g. FixedWcma's warm-up θ indexing — see wcma_fixed.hpp).
BackendDivergence MeasurePredictionDivergence(Predictor& a, Predictor& b,
                                              const SlotSeries& series,
                                              std::size_t skip_slots = 0) {
  a.Reset();
  b.Reset();
  BackendDivergence divergence;
  double abs_sum = 0.0;
  // Same loop shape as SimulateNode: the final boundary has no successor
  // slot, so it is observed by neither comparison.
  for (std::size_t g = 0; g + 1 < series.size(); ++g) {
    a.Observe(series.boundary(g));
    b.Observe(series.boundary(g));
    if (g < skip_slots) continue;
    const double diff = std::fabs(a.PredictNext() - b.PredictNext());
    ++divergence.slots;
    abs_sum += diff;
    divergence.max_abs_w = std::max(divergence.max_abs_w, diff);
  }
  if (divergence.slots > 0) {
    divergence.mean_abs_w = abs_sum / static_cast<double>(divergence.slots);
  }
  if (series.peak_mean() > 0.0) {
    divergence.max_rel_peak = divergence.max_abs_w / series.peak_mean();
  }
  return divergence;
}

/// (site, storage) -> cell index for one predictor label.
std::map<std::pair<std::size_t, std::size_t>, std::size_t> CellsOf(
    const FleetSummary& summary, const std::string& label) {
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> cells;
  for (const ScenarioCell& cell : summary.cells) {
    if (cell.predictor_label == label) {
      cells.emplace(std::make_pair(cell.site_index, cell.storage_index),
                    cell.index);
    }
  }
  SHEP_REQUIRE(!cells.empty(), "no cells carry predictor label " + label);
  return cells;
}

/// |MAPE(label_a) − MAPE(label_b)| for every (site, storage) cell pair of
/// the two labels.  Fleet weather is paired per site, so matched cells
/// faced identical draws and the delta isolates the backend, not sampling
/// noise.  Throws std::invalid_argument when a label is missing, a
/// counterpart cell does not exist, or a matched cell has no measured MAPE
/// (parity over unmeasured accuracy would be vacuous).
std::vector<double> MapeDeltas(const FleetSummary& summary,
                               const std::string& label_a,
                               const std::string& label_b) {
  const auto cells_a = CellsOf(summary, label_a);
  const auto cells_b = CellsOf(summary, label_b);
  std::vector<double> deltas;
  for (const auto& [key, index_a] : cells_a) {
    const auto it = cells_b.find(key);
    SHEP_REQUIRE(it != cells_b.end(),
                 "label " + label_b + " has no cell matching a " + label_a +
                     " (site, storage) combination");
    const CellAccumulator& stats_a = summary.stats[index_a];
    const CellAccumulator& stats_b = summary.stats[it->second];
    SHEP_REQUIRE(stats_a.mape.valid() && stats_b.mape.valid(),
                 "matched cells must both have measured MAPE");
    deltas.push_back(std::fabs(stats_a.mape.mean - stats_b.mape.mean));
  }
  return deltas;
}

double MaxAbsMapeDelta(const std::vector<double>& deltas) {
  return deltas.empty() ? 0.0
                        : *std::max_element(deltas.begin(), deltas.end());
}

constexpr int kSlotsPerDay = 48;

WcmaParams Params() {
  WcmaParams p;
  p.alpha = 0.7;
  p.days = 5;
  p.slots_k = 3;
  return p;
}

SlotSeries MakeSeries(const char* site, std::size_t days) {
  SynthOptions opt;
  opt.days = days;
  return SlotSeries(SynthesizeTrace(SiteByCode(site), opt), kSlotsPerDay);
}

// The scenario of the fleet-level tests: two contrasting sites, the same
// WCMA design on all three backends, paired weather.
ScenarioSpec BackendSpec() {
  ScenarioSpec spec;
  spec.name = "backend_parity";
  spec.sites = {"ECSU", "PFCI"};
  PredictorSpec float_wcma;
  float_wcma.kind = PredictorKind::kWcma;
  float_wcma.wcma = Params();
  PredictorSpec fixed_wcma = float_wcma;
  fixed_wcma.kind = PredictorKind::kWcmaFixed;
  PredictorSpec vm_wcma = float_wcma;
  vm_wcma.kind = PredictorKind::kWcmaVm;
  spec.predictors = {float_wcma, fixed_wcma, vm_wcma};
  spec.storage_tiers_j = {1500.0, 6000.0};
  spec.nodes_per_cell = 2;
  spec.days = 30;
  spec.slots_per_day = kSlotsPerDay;
  spec.seed = 99;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 20;
  spec.initial_level_jitter = 0.2;
  return spec;
}

TEST(BackendParity, VmTracksFloatToUlps) {
  // The VM routine performs the same double operations in the same order as
  // core/Wcma; the only admissible divergence is FMA contraction in the
  // compiled host expressions.  Bound: 1e-12 of the series peak, from the
  // very first slot (warm-up included — the VM warm-up programs replicate
  // the float warm-up θ ramp exactly).
  const auto series = MakeSeries("ECSU", 15);
  Wcma reference(Params(), kSlotsPerDay);
  VmWcmaPredictor vm(Params(), kSlotsPerDay);
  const BackendDivergence d =
      MeasurePredictionDivergence(reference, vm, series);
  EXPECT_GT(d.slots, 0u);
  EXPECT_LT(d.max_rel_peak, 1e-12) << "max_abs_w=" << d.max_abs_w;
}

TEST(BackendParity, FixedTracksFloatWithinQuantisationBudget) {
  // Same bound as tests/test_wcma_fixed.cpp, via the divergence harness:
  // 1 % of peak + 1 mW once past day 0 (warm-up θ indexing differs by
  // design between the fixed and float builds — see wcma_fixed.hpp).
  const auto series = MakeSeries("ECSU", 15);
  Wcma reference(Params(), kSlotsPerDay);
  CostedFixedWcma fixed(Params(), kSlotsPerDay);
  const BackendDivergence d = MeasurePredictionDivergence(
      reference, fixed, series, /*skip_slots=*/series.slots_per_day());
  EXPECT_GT(d.slots, 0u);
  EXPECT_LT(d.max_abs_w, 0.01 * series.peak_mean() + 1e-3);
  EXPECT_LT(d.mean_abs_w, d.max_abs_w + 1e-15);
}

TEST(BackendParity, FixedTracksVmWithinQuantisationBudget) {
  // Transitively bounded by the two tests above; measured directly so the
  // fixed↔VM pair never silently drifts apart through the float leg.
  const auto series = MakeSeries("PFCI", 15);
  VmWcmaPredictor vm(Params(), kSlotsPerDay);
  CostedFixedWcma fixed(Params(), kSlotsPerDay);
  const BackendDivergence d = MeasurePredictionDivergence(
      vm, fixed, series, /*skip_slots=*/series.slots_per_day());
  EXPECT_LT(d.max_abs_w, 0.01 * series.peak_mean() + 1e-3);
}

TEST(BackendParity, MixedBackendFleetRunsEndToEnd) {
  const ScenarioSpec spec = BackendSpec();
  const FleetSummary summary = RunFleet(spec);
  ASSERT_EQ(summary.stats.size(), spec.cell_count());

  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    const ScenarioCell& cell = summary.cells[i];
    const CellAccumulator& stats = summary.stats[i];
    EXPECT_EQ(stats.nodes(), spec.nodes_per_cell);
    EXPECT_TRUE(stats.mape.valid());
    if (cell.predictor_label == "WCMA") {
      // Float backend: no modelled MCU cost.
      EXPECT_FALSE(stats.has_compute_cost());
    } else {
      // Fixed and VM backends: positive per-wake-up cycle and op cost, one
      // sample per node of the cell.
      ASSERT_TRUE(stats.has_compute_cost()) << cell.predictor_label;
      EXPECT_EQ(stats.cycles_per_wakeup.count, spec.nodes_per_cell);
      EXPECT_GT(stats.cycles_per_wakeup.mean, 0.0);
      EXPECT_GT(stats.ops_per_wakeup.mean, 0.0);
      // Division dominates: K+2 divisions in steady state put the mean
      // comfortably above one div's cycle price.
      EXPECT_GT(stats.cycles_per_wakeup.mean, 560.0);
    }
  }

  // Cost columns render in both report shapes.
  EXPECT_NE(summary.ToTable().find("cyc_mean"), std::string::npos);
  EXPECT_NE(summary.ToCsv().find("cyc_mean,cyc_p95,ops_mean"),
            std::string::npos);
  EXPECT_NE(summary.ToCsv().find("n/a"), std::string::npos);
}

TEST(BackendParity, FleetWideMapeDeltasAreBounded) {
  const FleetSummary summary = RunFleet(BackendSpec());

  // Float↔VM: predictions differ by ulps, so per-cell MAPE deltas on
  // paired weather are noise-level.
  const auto vm_deltas = MapeDeltas(summary, "WCMA", "VmWCMA");
  EXPECT_EQ(vm_deltas.size(), 2u * 2u);  // sites × storage tiers.
  EXPECT_LT(MaxAbsMapeDelta(vm_deltas), 1e-9);

  // Float↔fixed: Q16.16 quantisation moves per-slot predictions by <= 1 %
  // of peak; averaged into an in-ROI MAPE that stays within a percentage
  // point.
  const auto fixed_deltas = MapeDeltas(summary, "WCMA", "FixedWCMA");
  EXPECT_EQ(fixed_deltas.size(), 2u * 2u);
  EXPECT_LT(MaxAbsMapeDelta(fixed_deltas), 0.01);

  // Missing labels and unmatched pairs are rejected, not silently empty.
  EXPECT_THROW(MapeDeltas(summary, "WCMA", "NOPE"), std::invalid_argument);
}

// Acceptance criterion: the runner's bit-identity invariant extends to the
// new backends and to the MCU-cost aggregates.
TEST(BackendParity, CostAggregatesBitIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = BackendSpec();
  // The invariant is bit-identity in (spec, shard_size): shard boundaries
  // fix the merge grouping, the pool only decides who runs a shard.  Both
  // runs therefore share shard_size (3: straddles cell boundaries).
  FleetRunOptions serial_options;
  serial_options.shard_size = 3;
  const FleetSummary serial = RunFleet(spec, serial_options);

  ThreadPool pool(4);
  FleetRunOptions options;
  options.pool = &pool;
  options.shard_size = 3;
  const FleetSummary pooled = RunFleet(spec, options);

  ASSERT_EQ(serial.stats.size(), pooled.stats.size());
  for (std::size_t i = 0; i < serial.stats.size(); ++i) {
    const CellAccumulator& a = serial.stats[i];
    const CellAccumulator& b = pooled.stats[i];
    EXPECT_EQ(a.nodes(), b.nodes());
    EXPECT_EQ(a.has_compute_cost(), b.has_compute_cost());
    // Bit-identical, not merely close: EXPECT_EQ on doubles.
    EXPECT_EQ(a.mape.mean, b.mape.mean);
    EXPECT_EQ(a.cycles_per_wakeup.count, b.cycles_per_wakeup.count);
    EXPECT_EQ(a.cycles_per_wakeup.mean, b.cycles_per_wakeup.mean);
    EXPECT_EQ(a.cycles_per_wakeup.m2, b.cycles_per_wakeup.m2);
    EXPECT_EQ(a.cycles_per_wakeup.min, b.cycles_per_wakeup.min);
    EXPECT_EQ(a.cycles_per_wakeup.max, b.cycles_per_wakeup.max);
    EXPECT_EQ(a.ops_per_wakeup.mean, b.ops_per_wakeup.mean);
    EXPECT_EQ(a.ops_per_wakeup.m2, b.ops_per_wakeup.m2);
    EXPECT_EQ(a.cycles_hist.bins(), b.cycles_hist.bins());
  }
  EXPECT_EQ(serial.ToCsv(), pooled.ToCsv());
  EXPECT_EQ(serial.ToTable(), pooled.ToTable());
}

}  // namespace
}  // namespace shep
