#include "trace/record.hpp"

#include <istream>
#include <ostream>

#include "common/check.hpp"

namespace shep {

namespace {

constexpr std::uint32_t kAllTriggers =
    kTraceTriggerViolationBurst | kTraceTriggerSocLowWater |
    kTraceTriggerDivergence | kTraceTriggerOutage;

bool ReadFlag(std::istream& is) {
  const std::uint64_t value = serdes::ReadU64(is);
  SHEP_REQUIRE(value <= 1, "serialized flag must be 0 or 1");
  return value == 1;
}

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
  os << "slot " << node << ' ' << cell << ' ' << slot << ' ' << trigger_mask
     << ' ' << (violated ? 1 : 0) << ' ';
  serdes::WriteDouble(os, soc);
  os << ' ';
  serdes::WriteDouble(os, predicted_w);
  os << ' ';
  serdes::WriteDouble(os, actual_w);
  os << ' ';
  serdes::WriteDouble(os, duty);
  os << '\n';
}

TraceRecord TraceRecord::Deserialize(std::istream& is) {
  serdes::ExpectToken(is, "slot");
  TraceRecord r;
  r.node = serdes::ReadU64(is);
  r.cell = serdes::ReadU64(is);
  r.slot = serdes::ReadU32(is);
  r.trigger_mask = serdes::ReadU32(is);
  SHEP_REQUIRE((r.trigger_mask & ~kAllTriggers) == 0,
               "trace record carries unknown trigger bits");
  r.violated = ReadFlag(is);
  r.soc = serdes::ReadDouble(is);
  r.predicted_w = serdes::ReadDouble(is);
  r.actual_w = serdes::ReadDouble(is);
  r.duty = serdes::ReadDouble(is);
  return r;
}

void TraceDayRecord::Serialize(std::ostream& os) const {
  os << "day " << node << ' ' << cell << ' ' << day << ' ' << slots << ' '
     << violations << ' ';
  serdes::WriteDouble(os, min_soc);
  os << ' ';
  serdes::WriteDouble(os, mean_duty);
  os << ' ';
  serdes::WriteDouble(os, max_abs_error_w);
  os << '\n';
}

TraceDayRecord TraceDayRecord::Deserialize(std::istream& is) {
  serdes::ExpectToken(is, "day");
  TraceDayRecord r;
  r.node = serdes::ReadU64(is);
  r.cell = serdes::ReadU64(is);
  r.day = serdes::ReadU32(is);
  r.slots = serdes::ReadU32(is);
  r.violations = serdes::ReadU32(is);
  SHEP_REQUIRE(r.violations <= r.slots,
               "day record counts more violations than slots");
  r.min_soc = serdes::ReadDouble(is);
  r.mean_duty = serdes::ReadDouble(is);
  r.max_abs_error_w = serdes::ReadDouble(is);
  return r;
}

}  // namespace shep
