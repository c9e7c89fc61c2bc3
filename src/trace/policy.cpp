#include "trace/policy.hpp"

#include <algorithm>
#include <bit>

namespace shep {

void TraceDistiller::Open(std::uint32_t slots_per_day,
                          std::vector<TraceRecord>& records,
                          std::vector<TraceDayRecord>& day_records) {
  SHEP_REQUIRE(slots_per_day > 0, "trace policy needs slots_per_day > 0");
  // Sized here, once, rather than in the constructor: a pool's writers are
  // all built by one thread, and a ring allocated there beside the others
  // measured slower end to end than one allocated by the worker that
  // writes it on every slot.
  if (ring_.empty()) {
    ring_.resize(std::bit_ceil(std::size_t{std::max(
        config_.window_slots, config_.burst_window_slots)} + 1));
  }
  slots_per_day_ = slots_per_day;
  records_ = &records;
  day_records_ = &day_records;
}

void TraceDistiller::EndNode() {
  while (node_.emitted < node_.pushed) Emit();
  if (node_.day.slots > 0) day_records_->push_back(node_.day);
}

static_assert(kTraceTriggerOutage == 1u << 3,
              "paint_end holds one entry per TraceTrigger bit");

void TraceDistiller::Paint(std::uint32_t trigger) {
  const std::uint64_t newest = node_.pushed - 1;
  const std::uint64_t window = config_.window_slots;
  for (std::uint64_t i = newest >= window ? newest - window : 0; i <= newest;
       ++i) {
    At(i).trigger_mask |= trigger;
  }
  node_.paint_end[std::countr_zero(trigger)] = newest + window + 1;
}

void ApplyTracePolicy(const std::vector<TraceEvent>& events,
                      std::uint32_t slots_per_day,
                      const TracePolicyConfig& config,
                      std::vector<TraceRecord>& records,
                      std::vector<TraceDayRecord>& day_records) {
  TraceDistiller distiller(config);
  distiller.Open(slots_per_day, records, day_records);
  if (events.empty()) return;
  distiller.BeginNode(events.front().node, events.front().cell);
  for (const TraceEvent& e : events) {
    distiller.Push(e.slot, e.violated, e.soc, e.predicted_w, e.actual_w,
                   e.duty, e.outage);
  }
  distiller.EndNode();
}

}  // namespace shep
