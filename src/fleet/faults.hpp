// faults.hpp — deterministic fault injection for fleet campaigns.
//
// Real deployments lose nodes the paper's evaluation never models: radios
// brown out for hours (outages), panels soil and age (harvest decay),
// batteries fade (capacity aging), and sensors drop readings (dropout
// windows).  This module injects all four as a *precomputed schedule*
// derived from the scenario seed, so chaos runs keep the fleet invariant:
// bit-identical summaries at any thread count, shard grouping, or process
// count.
//
// The split mirrors the tracing design (trace/probe.hpp):
//
//  * FaultSpec      — the declarative knobs on ScenarioSpec, serialized in
//    Describe()/ParseScenarioSpec so coordinated multi-process campaigns
//    carry fault configs verbatim;
//  * FaultSchedule  — the per-node expansion (sorted outage/dropout slot
//    windows + per-day degradation factors), built OFF the hot path by the
//    runner from the node's own fault seed — its own splitmix lane, so the
//    weather and jitter draw sequences (part of the bit-identity contract)
//    are untouched;
//  * FaultModel     — the zero-allocation kernel-side view: monotone
//    cursors over the schedule, threaded through SimulateNodeKernel as a
//    template parameter exactly like the slot probe.  The disabled flavour
//    (NoFaultModel, mgmt/node_sim_kernel.hpp) removes every fault branch
//    via `if constexpr`, so an unfaulted run compiles to the pre-fault
//    kernel bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace shep {

/// Declarative fault knobs of a campaign; all defaults are "healthy fleet"
/// (any() == false), and a healthy spec reproduces the pre-fault golden
/// fixtures byte for byte.
struct FaultSpec {
  /// Mean outage arrivals per node-day (1/MTBF in days).  Expanded as a
  /// per-slot Bernoulli draw at p = rate / slots_per_day while the node is
  /// up, so rate must not exceed slots_per_day.
  double outage_rate_per_day = 0.0;
  /// Mean outage duration in slots (MTTR); exponential, rounded, floored
  /// at one slot.  Required >= 1 when the rate is positive.
  double outage_mean_slots = 0.0;
  /// Mean sensor-dropout arrivals per node-day; same arrival model.
  double dropout_rate_per_day = 0.0;
  /// Mean dropout duration in slots.  A dropout window must fit within one
  /// day (> slots_per_day is rejected): a sensor dark for days is an
  /// outage, not a dropout.
  double dropout_mean_slots = 0.0;
  /// Harvest-panel efficiency decay per day (soiling/aging): day d scales
  /// every harvest by (1 - decay)^d.  Must be in [0, 1).
  double panel_decay_per_day = 0.0;
  /// Battery capacity fade per day: day d shrinks usable capacity to
  /// capacity_j * (1 - aging)^d.  Must be in [0, 1).
  double battery_aging_per_day = 0.0;
  /// Post-recovery accounting window in slots (the span after an outage
  /// over which violations are attributed to the recovery); 0 means one
  /// day.
  std::size_t recovery_window_slots = 0;

  /// True when any fault channel is active; the runner only builds
  /// schedules (and the kernel only takes the faulted instantiation) for
  /// specs where this holds.
  bool any() const {
    return outage_rate_per_day > 0.0 || dropout_rate_per_day > 0.0 ||
           panel_decay_per_day > 0.0 || battery_aging_per_day > 0.0;
  }

  /// Throws std::invalid_argument on knobs the schedule builder cannot
  /// honour; called from ScenarioSpec::Validate with the campaign shape.
  void Validate(std::size_t days, int slots_per_day) const;
};

/// One injected window of slots, [begin, end).
struct FaultWindow {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// The per-node expansion of a FaultSpec: everything the kernel's fault
/// probe reads, precomputed so the hot path never draws randomness or
/// allocates.  Reusable across nodes (Clear keeps capacity) the way
/// SynthScratch is reused across lanes.
struct FaultSchedule {
  std::vector<FaultWindow> outages;   ///< sorted, disjoint outage windows.
  std::vector<FaultWindow> dropouts;  ///< sorted, disjoint dropout windows.
  std::vector<double> panel_factor;     ///< per-day harvest multiplier.
  std::vector<double> capacity_factor;  ///< per-day usable-capacity factor.
  std::uint32_t recovery_window_slots = 0;  ///< resolved (0 -> one day).

  void Clear() {
    outages.clear();
    dropouts.clear();
    panel_factor.clear();
    capacity_factor.clear();
    recovery_window_slots = 0;
  }
};

/// Expands `spec` into `out` for one node.  Deterministic: the same
/// (spec, fault_seed, shape) always produces the identical schedule, and
/// the draws come from sub-lanes of `fault_seed` alone — no other stream
/// in the run is consumed or perturbed.  `out` is overwritten (capacity
/// reused).
void BuildFaultSchedule(const FaultSpec& spec, std::uint64_t fault_seed,
                        std::size_t days, int slots_per_day,
                        FaultSchedule& out);

/// Enabled kernel-side fault view (the NoFaultModel counterpart lives next
/// to NoSlotProbe in mgmt/node_sim_kernel.hpp).  Passed into the kernel BY
/// VALUE: the cursors advance monotonically with the slot index, so every
/// query is O(1) amortized over the run — index math only, so the
/// kernel's no-allocation contract holds with faults on.
class FaultModel {
 public:
  static constexpr bool kEnabled = true;

  explicit FaultModel(const FaultSchedule& schedule) : schedule_(&schedule) {}

  /// True when `slot` falls inside an outage window.  Slots must be
  /// queried in ascending order (the kernel's loop order).
  bool Down(std::uint32_t slot) {
    return Advance(schedule_->outages, outage_cursor_, slot);
  }

  /// True when `slot` falls inside a sensor-dropout window.
  bool Dropout(std::uint32_t slot) {
    return Advance(schedule_->dropouts, dropout_cursor_, slot);
  }

  double PanelFactor(std::size_t day) const {
    return schedule_->panel_factor[day];
  }
  double CapacityFactor(std::size_t day) const {
    return schedule_->capacity_factor[day];
  }
  std::uint32_t recovery_window_slots() const {
    return schedule_->recovery_window_slots;
  }

 private:
  static bool Advance(const std::vector<FaultWindow>& windows,
                      std::size_t& cursor, std::uint32_t slot) {
    while (cursor < windows.size() && slot >= windows[cursor].end) ++cursor;
    return cursor < windows.size() && slot >= windows[cursor].begin;
  }

  const FaultSchedule* schedule_;
  std::size_t outage_cursor_ = 0;
  std::size_t dropout_cursor_ = 0;
};

}  // namespace shep
