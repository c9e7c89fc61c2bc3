// node_sim_kernel.hpp — the SimulateNode slot loop as a static-dispatch
// template.
//
// The fleet hot path runs this loop once per node, thousands of nodes per
// shard, with two per-slot virtual calls (Observe, PredictNext) and one
// per-run dynamic_cast (the ComputeCostReporter probe).  Instantiating the
// kernel on the CONCRETE predictor type — every hot predictor class is
// `final` — lets the compiler devirtualize and inline the predictor into
// the loop and resolve the cost probe at compile time.  The classic
// virtual entry point, SimulateNode(Predictor&, ...), is this same kernel
// instantiated at P = Predictor: one definition of the simulation
// semantics, two dispatch strategies, bit-identical results (pinned by
// tests/test_node_kernel.cpp and the fleet golden suite).
//
// The fleet runs every PredictorKind at its concrete type: runner.cpp
// calls this kernel inside fleet/scenario.hpp's WithPredictor, or, for a
// forecast several storage tiers share, on fleet/forecast_replay.hpp's
// replay of it.  The examples and the tests' reference runs call the
// virtual entry point.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/check.hpp"
#include "common/mathutil.hpp"
#include "core/predictor.hpp"
#include "metrics/error.hpp"
#include "mgmt/duty_cycle.hpp"
#include "mgmt/node_sim.hpp"
#include "mgmt/storage.hpp"

namespace shep {

/// Disabled per-slot probe: the default Probe argument of the kernel.
/// kEnabled = false removes the probe call sites via `if constexpr`, so a
/// tracing-off instantiation compiles to exactly the pre-probe kernel —
/// telemetry costs nothing unless a run opts in (trace/probe.hpp supplies
/// the enabled flavour).
struct NoSlotProbe {
  static constexpr bool kEnabled = false;
};

/// Disabled fault model: the default Faults argument of the kernel.  Like
/// NoSlotProbe, kEnabled = false removes every fault branch via
/// `if constexpr`, so a healthy instantiation compiles to exactly the
/// pre-fault kernel (fleet/faults.hpp supplies the enabled FaultModel).
struct NoFaultModel {
  static constexpr bool kEnabled = false;
};

/// Runs `predictor` over `series` through the controller and store.  P is
/// either a concrete final predictor class (static dispatch, the fleet hot
/// path) or the abstract Predictor (virtual dispatch, the flexible entry).
/// The predictor is Reset() first.
///
/// Probe is a per-slot observation hook with a `static constexpr bool
/// kEnabled`; when enabled it is invoked once per simulated slot — warm-up
/// slots included, AFTER the slot's physics but BEFORE any scoring — as
/// probe(slot, violated, soc, predicted_w, actual_w, duty, outage).  The
/// probe only reads; simulation state and results never depend on it.
///
/// Faults is the injection hook (same kEnabled pattern), taken BY VALUE —
/// its schedule cursors advance with the loop.  Semantics when enabled:
/// outage slots suspend sampling, prediction, and load (the store only
/// leaks) and are counted as downtime, never scored; the first up-slot
/// after an outage Reset()s the predictor (a real node re-warms from
/// scratch) and opens the post-recovery accounting window; dropout slots
/// feed the predictor the last real observation (hold-last); panel decay
/// scales each slot's harvest by its day factor; battery aging re-rates
/// the usable capacity at each day boundary.  All schedule queries are
/// index math.
///
/// Allocation contract: apart from per-run constants (the result's
/// predictor name), a run allocates nothing — not per slot, not per day,
/// not per recovery Reset() — for every PredictorKind, healthy, faulted or
/// traced.  tests/test_hot_path_alloc.cpp checks it with a counting
/// operator new.
template <class P, class Probe = NoSlotProbe, class Faults = NoFaultModel>
NodeSimResult SimulateNodeKernel(
    P& predictor, const SlotSeries& series, const NodeSimConfig& config,
    const Probe& probe = Probe{}, Faults faults = Faults{}) {
  config.duty.Validate();
  config.storage.Validate();
  SHEP_REQUIRE(config.initial_level_fraction >= 0.0 &&
                   config.initial_level_fraction <= 1.0,
               "initial level must be a fraction");
  SHEP_REQUIRE(
      std::fabs(config.duty.slot_seconds -
                static_cast<double>(series.grid().slot_seconds)) < 1e-9,
      "controller slot length must match the series slot length");

  predictor.Reset();
  EnergyStorage store(config.storage,
                      config.initial_level_fraction *
                          config.storage.capacity_j);
  DutyCycleController controller(config.duty);

  NodeSimResult result;
  result.predictor_name = predictor.Name();
  const double slot_s = config.duty.slot_seconds;
  const std::size_t warmup_slots =
      config.warmup_days * series.slots_per_day();

  // The reported mean stays the plain sum/n (its rounding is pinned by the
  // fleet golden fixtures); the VARIANCE comes from a Welford accumulator,
  // whose running-deviation form does not cancel catastrophically on long
  // runs the way duty_sq_sum/n - mean^2 does.
  double duty_sum = 0.0;
  WelfordMoments duty_moments;
  double overflow_before = 0.0;
  double delivered_before = 0.0;
  double ape_sum = 0.0;
  // Same region-of-interest rule as the accuracy evaluation (metrics/error):
  // only slots whose mean clears 10 % of the series peak are scored, and a
  // zero reference never enters the percentage (degenerate all-dark trace).
  const double roi_threshold = RoiFilter{}.threshold_fraction *
                               series.peak_mean();

  // Fault-path state; unused (and elided) in healthy instantiations.
  const std::size_t slots_per_day = series.slots_per_day();
  [[maybe_unused]] double last_obs = 0.0;          ///< hold-last sensor value.
  [[maybe_unused]] bool was_down = false;
  [[maybe_unused]] std::size_t recovery_deadline = 0;

  for (std::size_t g = 0; g + 1 < series.size(); ++g) {
    if constexpr (Faults::kEnabled) {
      // Day boundary: battery aging re-rates the usable capacity from here
      // on (day 0's factor is 1.0, so a zero-aging spec never moves it).
      if (g % slots_per_day == 0) {
        store.SetCapacity(config.storage.capacity_j *
                          faults.CapacityFactor(g / slots_per_day));
      }
      if (faults.Down(static_cast<std::uint32_t>(g))) {
        // The node is dark: no sampling, no prediction, no load — only
        // physics (self-discharge) continues.  The slot is downtime, not a
        // scored slot; the warm-up snapshot below still has to happen here
        // if the boundary lands inside the outage.
        if (g == warmup_slots) {
          overflow_before = store.total_overflow_j();
          delivered_before = store.total_delivered_j();
        }
        store.Leak(slot_s);
        if constexpr (Probe::kEnabled) {
          probe(static_cast<std::uint32_t>(g), false, store.fraction(), 0.0,
                series.mean(g), 0.0, true);
        }
        was_down = true;
        if (g >= warmup_slots) ++result.downtime_slots;
        continue;
      }
      if (was_down) {
        // Recovery: a rebooted node has lost its learned state, so the
        // predictor re-warms from scratch, and the slots until the
        // recovery window closes are attributed to this recovery.
        was_down = false;
        predictor.Reset();
        if (g >= warmup_slots) ++result.recoveries;
        recovery_deadline = g + faults.recovery_window_slots();
      }
    }

    // Wake-up at the start of interval g: sample, predict, commit.
    if constexpr (Faults::kEnabled) {
      double observed = series.boundary(g);
      if (faults.Dropout(static_cast<std::uint32_t>(g))) {
        observed = last_obs;  // sensor dropout: hold the last real reading.
      } else {
        last_obs = observed;
      }
      predictor.Observe(observed);
    } else {
      predictor.Observe(series.boundary(g));
    }
    const double predicted_w = std::max(0.0, predictor.PredictNext());
    const double predicted_j = predicted_w * slot_s;
    double usable_capacity_j = config.storage.capacity_j;
    if constexpr (Faults::kEnabled) {
      usable_capacity_j = store.params().capacity_j;  // aged capacity.
    }
    const double duty = controller.DutyForSlot(
        predicted_j, store.level_j(), usable_capacity_j);

    // Snapshot the lifetime counters before the first scored slot happens,
    // so overflow_j/delivered_j cover exactly the same slots as the other
    // scored totals (harvest, violations, duty).
    if (g == warmup_slots) {
      overflow_before = store.total_overflow_j();
      delivered_before = store.total_delivered_j();
    }

    // The slot then actually happens.
    double harvest_j = series.mean(g) * slot_s;
    if constexpr (Faults::kEnabled) {
      harvest_j *= faults.PanelFactor(g / slots_per_day);  // panel decay.
    }
    const double demand_j = controller.ConsumptionJ(duty);
    store.Charge(harvest_j);
    const double delivered = store.Discharge(demand_j);
    store.Leak(slot_s);
    const bool violated = delivered + 1e-12 < demand_j;

    if constexpr (Probe::kEnabled) {
      probe(static_cast<std::uint32_t>(g), violated, store.fraction(),
            predicted_w, series.mean(g), duty, false);
    }

    if (g < warmup_slots) continue;

    ++result.slots;
    if (violated) ++result.violations;
    if constexpr (Faults::kEnabled) {
      if (g < recovery_deadline) {
        ++result.post_recovery_slots;
        if (violated) ++result.post_recovery_violations;
      }
    }
    duty_sum += duty;
    duty_moments.Add(duty);
    result.harvested_j += harvest_j;
    result.min_level_fraction =
        std::min(result.min_level_fraction, store.fraction());
    if (series.mean(g) > 0.0 && series.mean(g) >= roi_threshold) {
      ape_sum += std::fabs(series.mean(g) - predicted_w) / series.mean(g);
      ++result.mape_points;
    }
  }

  if constexpr (Faults::kEnabled) {
    result.faulted = true;
    // An extreme schedule can keep a node dark for every post-warm-up
    // slot; that is downtime (availability 0), not a broken run.
    SHEP_CHECK(result.slots + result.downtime_slots > 0,
               "simulation produced no scored or downtime slots");
  } else {
    SHEP_CHECK(result.slots > 0, "simulation produced no scored slots");
  }
  if (result.slots > 0) {
    const double n = static_cast<double>(result.slots);
    result.violation_rate = static_cast<double>(result.violations) / n;
    result.mean_duty = duty_sum / n;
    result.duty_stddev = duty_moments.stddev();
    result.overflow_j = store.total_overflow_j() - overflow_before;
    result.delivered_j = store.total_delivered_j() - delivered_before;
    if (result.mape_points > 0) {
      result.mape = ape_sum / static_cast<double>(result.mape_points);
    }
  }
  // MCU-cost channel: the backends that model deployment cost expose their
  // cumulative counters through the optional ComputeCostReporter interface;
  // the Reset() at entry zeroed them, so the totals cover exactly this run.
  // A concrete P answers the probe at compile time; only the virtual entry
  // point (P = Predictor) still pays the dynamic_cast, once per run.
  if constexpr (std::is_base_of_v<ComputeCostReporter, P>) {
    result.has_compute_cost = true;
    result.compute =
        static_cast<const ComputeCostReporter&>(predictor).ComputeCost();
  } else if constexpr (std::is_same_v<P, Predictor>) {
    if (const auto* costed =
            dynamic_cast<const ComputeCostReporter*>(&predictor)) {
      result.has_compute_cost = true;
      result.compute = costed->ComputeCost();
    }
  }
  return result;
}

}  // namespace shep
