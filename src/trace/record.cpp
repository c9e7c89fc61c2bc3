#include "trace/record.hpp"

#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "common/serdes.hpp"

namespace shep {

namespace {

constexpr std::uint32_t kAllTriggers =
    kTraceTriggerViolationBurst | kTraceTriggerSocLowWater |
    kTraceTriggerDivergence | kTraceTriggerOutage;

constexpr auto WalkRecord = [](auto& io, auto& r) {
  serdes::Line(io, "slot", r.node, r.cell, r.slot, r.trigger_mask,
               r.violated, r.soc, r.predicted_w, r.actual_w, r.duty);
};

constexpr auto WalkDayRecord = [](auto& io, auto& r) {
  serdes::Line(io, "day", r.node, r.cell, r.day, r.slots, r.violations,
               r.min_soc, r.mean_duty, r.max_abs_error_w);
};

}  // namespace

const char* TraceTriggerName(TraceTrigger trigger) {
  switch (trigger) {
    case kTraceTriggerViolationBurst:
      return "violation-burst";
    case kTraceTriggerSocLowWater:
      return "soc-low-water";
    case kTraceTriggerDivergence:
      return "divergence";
    case kTraceTriggerOutage:
      return "outage";
  }
  return "unknown";
}

std::uint32_t TraceTriggerFromName(const std::string& name) {
  for (const TraceTrigger t :
       {kTraceTriggerViolationBurst, kTraceTriggerSocLowWater,
        kTraceTriggerDivergence, kTraceTriggerOutage}) {
    if (name == TraceTriggerName(t)) return t;
  }
  return 0;
}

std::string TraceTriggerMaskName(std::uint32_t mask) {
  std::string joined;
  for (const TraceTrigger t :
       {kTraceTriggerViolationBurst, kTraceTriggerSocLowWater,
        kTraceTriggerDivergence, kTraceTriggerOutage}) {
    if ((mask & t) == 0) continue;
    if (!joined.empty()) joined += '+';
    joined += TraceTriggerName(t);
  }
  return joined.empty() ? "-" : joined;
}

void TraceRecord::Serialize(std::ostream& os) const {
  serdes::Write(os, *this, WalkRecord);
}

TraceRecord TraceRecord::Deserialize(std::istream& is) {
  const auto r = serdes::Read<TraceRecord>(is, WalkRecord);
  SHEP_REQUIRE((r.trigger_mask & ~kAllTriggers) == 0,
               "trace record carries unknown trigger bits");
  return r;
}

void TraceDayRecord::Serialize(std::ostream& os) const {
  serdes::Write(os, *this, WalkDayRecord);
}

TraceDayRecord TraceDayRecord::Deserialize(std::istream& is) {
  const auto r = serdes::Read<TraceDayRecord>(is, WalkDayRecord);
  SHEP_REQUIRE(r.violations <= r.slots,
               "day record counts more violations than slots");
  return r;
}

}  // namespace shep
