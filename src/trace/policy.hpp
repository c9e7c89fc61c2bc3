// policy.hpp — selective persistence: which observed slots are worth
// keeping at full resolution.
//
// The policy walks one node's complete slot sequence and flags trigger
// slots — violation bursts, SoC low-water crossings, predictor-divergence
// spikes — then persists a full-resolution window of slots around each
// trigger (the slots that EXPLAIN the event, before and after).  Slots
// outside every window collapse into per-day TraceDayRecords, so the
// timeline stays gap-free at coarse resolution.
//
// ApplyTracePolicy is a pure function of (events, config): no clocks, no
// randomness, no global state.  The same node sequence always yields the
// same records, which is what makes per-shard trace files reproducible
// across thread counts and process boundaries.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/record.hpp"

namespace shep {

/// One simulated slot of one node, as NodeTraceProbe (trace/probe.hpp)
/// buffers it for the policy.
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
/// ApplyTracePolicy can set them: TraceSink always applies the defaults.
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

/// Distills one node's in-order slot events into full-resolution records
/// (inside trigger windows) plus per-day summaries (everywhere else),
/// appending to `records` / `day_records`.  `events` must all belong to a
/// single node, ascending by slot; `slots_per_day` buckets the summaries.
void ApplyTracePolicy(const std::vector<TraceEvent>& events,
                      std::uint32_t slots_per_day,
                      const TracePolicyConfig& config,
                      std::vector<TraceRecord>& records,
                      std::vector<TraceDayRecord>& day_records);

}  // namespace shep
