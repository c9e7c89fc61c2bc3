// record.hpp — the persisted units of fleet telemetry.
//
// A fleet run can afford to KEEP only a sliver of what it OBSERVES: a
// million nodes × thousands of slots is terabytes at full resolution.  The
// trace layer therefore persists two record shapes:
//
//  * TraceRecord    — one slot of one node at full resolution (SoC
//    fraction, predicted vs. actual harvest power, duty level, violation
//    flag), emitted only inside the selective-persistence windows around
//    trigger events (trace/policy.hpp);
//  * TraceDayRecord — one node-day coarse summary (violation count,
//    SoC low-water mark, mean duty, worst prediction error) for every
//    slot the policy did NOT keep, so the timeline has no blind gaps —
//    just lower resolution away from the interesting windows.
//
// Both serialize through the shared serdes codec (hexfloat doubles): a
// record that crossed a file boundary parses back BIT-identically, the same
// exactness contract the fleet partials carry (pinned by
// tests/test_trace_records.cpp at the representation's edges).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace shep {

/// Why a window of slots was persisted at full resolution; records carry
/// the union (bitmask) of every trigger whose window covers them.
enum TraceTrigger : std::uint32_t {
  kTraceTriggerViolationBurst = 1u << 0,  ///< violation pile-up in a window.
  kTraceTriggerSocLowWater = 1u << 1,     ///< SoC crossed the low-water mark.
  kTraceTriggerDivergence = 1u << 2,      ///< predictor error spiked.
  kTraceTriggerOutage = 1u << 3,          ///< injected outage began or ended.
};

/// Display name of a single trigger bit ("violation-burst", ...).
const char* TraceTriggerName(TraceTrigger trigger);

/// "violation-burst" → kTraceTriggerViolationBurst, etc.; 0 for an unknown
/// name (no trigger is ever the zero mask, so 0 is unambiguous).
[[nodiscard]] std::uint32_t TraceTriggerFromName(const std::string& name);

/// All trigger bits of `mask` joined with '+' ("soc-low-water+divergence"),
/// or "-" for an empty mask.
std::string TraceTriggerMaskName(std::uint32_t mask);

/// One slot of one node, full resolution.
struct TraceRecord {
  std::uint64_t node = 0;          ///< global node id (cell-major).
  std::uint64_t cell = 0;          ///< owning scenario cell.
  std::uint32_t slot = 0;          ///< global slot index of the run.
  std::uint32_t trigger_mask = 0;  ///< TraceTrigger bits that kept it.
  bool violated = false;           ///< the slot browned out.
  double soc = 0.0;                ///< storage fraction after the slot.
  double predicted_w = 0.0;        ///< committed harvest prediction.
  double actual_w = 0.0;           ///< the slot's true mean power.
  double duty = 0.0;               ///< duty level the controller committed.

  /// One line of exact text ("slot ..."); doubles as hexfloats.
  void Serialize(std::ostream& os) const;
  [[nodiscard]] static TraceRecord Deserialize(std::istream& is);
};

/// One node-day coarse summary of the slots the policy did not persist.
struct TraceDayRecord {
  std::uint64_t node = 0;
  std::uint64_t cell = 0;
  std::uint32_t day = 0;            ///< slot / slots_per_day.
  std::uint32_t slots = 0;          ///< slots summarized into this record.
  std::uint32_t violations = 0;     ///< brown-outs among them.
  double min_soc = 1.0;             ///< lowest storage fraction seen.
  double mean_duty = 0.0;           ///< average committed duty.
  double max_abs_error_w = 0.0;     ///< worst |predicted − actual| power.

  /// One line of exact text ("day ..."); doubles as hexfloats.
  void Serialize(std::ostream& os) const;
  [[nodiscard]] static TraceDayRecord Deserialize(std::istream& is);
};

}  // namespace shep
