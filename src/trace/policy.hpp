// policy.hpp — selective persistence: which observed slots are worth
// keeping at full resolution.
//
// The policy flags trigger slots in one node's slot sequence — violation
// bursts, SoC low-water crossings, predictor-divergence spikes, outage
// edges — and persists a full-resolution window of slots around each
// trigger (the slots that EXPLAIN the event, before and after).  Slots
// outside every window collapse into per-day TraceDayRecords, so the
// timeline stays gap-free at coarse resolution.
//
// Every decision is local: a trigger paints ±window_slots, and a burst
// looks back burst_window_slots.  TraceDistiller therefore streams: it
// holds the undecided slots in a delay line of max(window_slots,
// burst_window_slots) + 1 entries (rounded up to a power of two) and
// emits each slot as soon as no later trigger can reach it.  The output
// is a pure function of (slots, config): no clocks, no randomness, no
// global state, which is what makes per-shard trace files reproducible
// across thread counts and process boundaries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "trace/record.hpp"

namespace shep {

/// One simulated slot of one node: the batch input of ApplyTracePolicy.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kSlot,  ///< one simulated slot of `node` (the only kind).
  };

  Kind kind = Kind::kSlot;
  bool violated = false;
  bool outage = false;  ///< the node was dark this slot (fault injection).
  std::uint32_t slot = 0;
  std::uint64_t node = 0;
  std::uint64_t cell = 0;
  double soc = 0.0;
  double predicted_w = 0.0;
  double actual_w = 0.0;
  double duty = 0.0;
};

/// Tuning knobs for what counts as "interesting".  The defaults suit the
/// day-scale scenarios of the demos and tests.  Only direct callers of
/// the policy can set them: TraceSink always applies the defaults.
struct TracePolicyConfig {
  /// Full-resolution slots kept on EACH side of a trigger slot.
  std::uint32_t window_slots = 6;
  /// SoC fraction whose downward crossing triggers a window.
  double soc_low_water = 0.15;
  /// Relative prediction error |predicted − actual| / actual above which a
  /// slot counts as a divergence spike (actual must be daylight — above
  /// the night epsilon — for the ratio to mean anything).
  double divergence_mape = 0.75;
  /// A burst is this many violations...
  std::uint32_t burst_violations = 3;
  /// ...inside a trailing window of this many slots.
  std::uint32_t burst_window_slots = 8;
};

/// The streaming policy.  Open once per output, then per node: BeginNode,
/// one Push per slot in ascending slot order, EndNode.  The delay line is
/// sized from the config by the first Open and reused by every node, so
/// distilling never allocates beyond the growth of the output vectors.
class TraceDistiller {
 public:
  explicit TraceDistiller(const TracePolicyConfig& config = {})
      : config_(config) {}

  /// Directs the following nodes' records to `records` / `day_records`
  /// (appended to, never cleared); `slots_per_day` buckets the summaries.
  void Open(std::uint32_t slots_per_day, std::vector<TraceRecord>& records,
            std::vector<TraceDayRecord>& day_records);

  void BeginNode(std::uint64_t node, std::uint64_t cell) {
    node_ = NodeState{};
    node_.node = node;
    node_.cell = cell;
  }
  /// One slot of the node.  Throws std::invalid_argument unless `slot` is
  /// above the previous Push's.  Runs once per traced slot, so it is
  /// defined here to inline into the kernel.
  void Push(std::uint32_t slot, bool violated, double soc, double predicted_w,
            double actual_w, double duty, bool outage) {
    NodeState& n = node_;
    SHEP_REQUIRE(n.pushed == 0 || At(n.pushed - 1).slot < slot,
                 "trace policy events must be ascending by slot");
    TraceRecord& held = At(n.pushed);
    held = {n.node, n.cell, slot, 0, violated, soc, predicted_w, actual_w,
            duty};
    // Forward windows of earlier triggers that reach this slot.
    for (std::uint32_t bit = 0; bit < std::size(n.paint_end); ++bit) {
      if (n.pushed < n.paint_end[bit]) held.trigger_mask |= 1u << bit;
    }
    const std::uint64_t newest = n.pushed++;

    if (n.prev_soc >= config_.soc_low_water && soc < config_.soc_low_water) {
      Paint(kTraceTriggerSocLowWater);
    }
    n.prev_soc = soc;

    // Injected-outage edges (both going dark and coming back) keep their
    // surrounding window at full detail: the slots just before an outage
    // and the post-recovery re-warm-up are exactly what a degradation
    // investigation needs.
    if (outage != n.prev_outage) Paint(kTraceTriggerOutage);
    n.prev_outage = outage;

    // A dark node predicts nothing — its zeroed prediction is an outage
    // artifact, not predictor divergence.
    if (!outage && actual_w > kNightEpsilonW &&
        std::abs(predicted_w - actual_w) >
            config_.divergence_mape * actual_w) {
      Paint(kTraceTriggerDivergence);
    }

    if (violated) ++n.trailing_violations;
    if (newest >= config_.burst_window_slots &&
        At(newest - config_.burst_window_slots).violated) {
      --n.trailing_violations;
    }
    if (n.trailing_violations >= config_.burst_violations) {
      Paint(kTraceTriggerViolationBurst);
    }

    // No later trigger reaches back past the window: that slot is final.
    if (n.pushed - n.emitted > config_.window_slots) Emit();
  }
  /// Emits the slots still held and closes the node's last day.
  void EndNode();

  /// Slots pushed since the last BeginNode.
  [[nodiscard]] std::uint64_t node_slots() const { return node_.pushed; }

 private:
  /// The ring entry of the node's `index`th slot; its trigger_mask holds
  /// the bits painted so far.  The ring's size is a power of two.
  TraceRecord& At(std::uint64_t index) {
    return ring_[index & (ring_.size() - 1)];
  }
  /// ORs `trigger` onto the held slots within window_slots of the newest
  /// and onto the next window_slots slots to be pushed.
  void Paint(std::uint32_t trigger);
  /// Persists the oldest undecided slot, as a record or into its day.
  void Emit() {
    const TraceRecord& held = At(node_.emitted++);
    if (held.trigger_mask != 0) {
      records_->push_back(held);
      return;
    }
    // Slots outside every window fold into per-day summaries.  One flush
    // per day boundary keeps the output day-major alongside the records.
    TraceDayRecord& day = node_.day;
    const std::uint32_t held_day = held.slot / slots_per_day_;
    if (day.slots == 0 || day.day != held_day) {
      if (day.slots > 0) day_records_->push_back(day);
      day = TraceDayRecord{};
      day.node = node_.node;
      day.cell = node_.cell;
      day.day = held_day;
    }
    ++day.slots;
    if (held.violated) ++day.violations;
    day.min_soc = std::min(day.min_soc, held.soc);
    // Running mean keeps the summary exact in one pass.
    day.mean_duty += (held.duty - day.mean_duty) / day.slots;
    day.max_abs_error_w = std::max(day.max_abs_error_w,
                                   std::abs(held.predicted_w - held.actual_w));
  }

  TracePolicyConfig config_;
  std::vector<TraceRecord> ring_;
  std::uint32_t slots_per_day_ = 0;
  std::vector<TraceRecord>* records_ = nullptr;
  std::vector<TraceDayRecord>* day_records_ = nullptr;
  struct NodeState {
    std::uint64_t node = 0;
    std::uint64_t cell = 0;
    std::uint64_t pushed = 0;   ///< slots pushed.
    std::uint64_t emitted = 0;  ///< slots persisted.
    /// Per TraceTrigger bit, one past the last slot its latest window
    /// covers.
    std::uint64_t paint_end[4] = {};
    // Nodes start with full storage, so the first slot can itself be a
    // downward low-water crossing; they boot healthy.
    double prev_soc = 1.0;
    bool prev_outage = false;
    std::uint32_t trailing_violations = 0;
    TraceDayRecord day;  ///< the open day, while day.slots > 0.
  } node_;
};

/// Batch form of TraceDistiller: distills one node's in-order slot events
/// into full-resolution records (inside trigger windows) plus per-day
/// summaries (everywhere else), appending to `records` / `day_records`.
/// `events` must all belong to a single node, ascending by slot;
/// `slots_per_day` buckets the summaries.
void ApplyTracePolicy(const std::vector<TraceEvent>& events,
                      std::uint32_t slots_per_day,
                      const TracePolicyConfig& config,
                      std::vector<TraceRecord>& records,
                      std::vector<TraceDayRecord>& day_records);

}  // namespace shep
