#include "trace/policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.hpp"
#include "common/constants.hpp"

namespace shep {

namespace {

/// Paints `trigger` over the window of `masks` centred on `center`,
/// clamped to the sequence bounds.
void PaintWindow(std::vector<std::uint32_t>& masks, std::size_t center,
                 std::uint32_t window, std::uint32_t trigger) {
  const std::size_t lo = center >= window ? center - window : 0;
  const std::size_t hi = std::min(masks.size() - 1, center + window);
  for (std::size_t i = lo; i <= hi; ++i) masks[i] |= trigger;
}

}  // namespace

void ApplyTracePolicy(const std::vector<TraceEvent>& events,
                      std::uint32_t slots_per_day,
                      const TracePolicyConfig& config,
                      std::vector<TraceRecord>& records,
                      std::vector<TraceDayRecord>& day_records) {
  SHEP_REQUIRE(slots_per_day > 0, "trace policy needs slots_per_day > 0");
  if (events.empty()) return;

  // Pass 1: find trigger slots and paint their persistence windows.
  std::vector<std::uint32_t> masks(events.size(), 0);
  // Nodes start with full storage, so the first slot can itself be a
  // downward low-water crossing.
  double prev_soc = 1.0;
  bool prev_outage = false;  // nodes boot healthy.
  std::uint32_t trailing_violations = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    SHEP_REQUIRE(i == 0 || events[i - 1].slot < e.slot,
                 "trace policy events must be ascending by slot");

    if (prev_soc >= config.soc_low_water && e.soc < config.soc_low_water) {
      PaintWindow(masks, i, config.window_slots, kTraceTriggerSocLowWater);
    }
    prev_soc = e.soc;

    // Injected-outage edges (both going dark and coming back) keep their
    // surrounding window at full detail: the slots just before an outage
    // and the post-recovery re-warm-up are exactly what a degradation
    // investigation needs.
    if (e.outage != prev_outage) {
      PaintWindow(masks, i, config.window_slots, kTraceTriggerOutage);
    }
    prev_outage = e.outage;

    // A dark node predicts nothing — its zeroed prediction is an outage
    // artifact, not predictor divergence.
    if (!e.outage && e.actual_w > kNightEpsilonW &&
        std::abs(e.predicted_w - e.actual_w) >
            config.divergence_mape * e.actual_w) {
      PaintWindow(masks, i, config.window_slots, kTraceTriggerDivergence);
    }

    if (e.violated) ++trailing_violations;
    if (i >= config.burst_window_slots &&
        events[i - config.burst_window_slots].violated) {
      --trailing_violations;
    }
    if (trailing_violations >= config.burst_violations) {
      PaintWindow(masks, i, config.window_slots, kTraceTriggerViolationBurst);
    }
  }

  // Pass 2: persisted slots become full-resolution records; the rest fold
  // into per-day summaries.  One flush per day boundary keeps the output
  // ordered day-major alongside the slot records.
  TraceDayRecord day;
  bool day_open = false;
  auto flush_day = [&] {
    if (day_open && day.slots > 0) day_records.push_back(day);
    day_open = false;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (masks[i] != 0) {
      TraceRecord r;
      r.node = e.node;
      r.cell = e.cell;
      r.slot = e.slot;
      r.trigger_mask = masks[i];
      r.violated = e.violated;
      r.soc = e.soc;
      r.predicted_w = e.predicted_w;
      r.actual_w = e.actual_w;
      r.duty = e.duty;
      records.push_back(r);
      continue;
    }
    const std::uint32_t e_day = e.slot / slots_per_day;
    if (!day_open || day.day != e_day) {
      flush_day();
      day = TraceDayRecord{};
      day.node = e.node;
      day.cell = e.cell;
      day.day = e_day;
      day_open = true;
    }
    ++day.slots;
    if (e.violated) ++day.violations;
    day.min_soc = std::min(day.min_soc, e.soc);
    // Running mean keeps the summary exact in one pass.
    day.mean_duty += (e.duty - day.mean_duty) / day.slots;
    day.max_abs_error_w =
        std::max(day.max_abs_error_w, std::abs(e.predicted_w - e.actual_w));
  }
  flush_day();
}

}  // namespace shep
