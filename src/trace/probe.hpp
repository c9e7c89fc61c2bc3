// probe.hpp — the hook the node-sim kernel calls once per slot when
// tracing is on.
//
// SimulateNodeKernel takes its probe as a template parameter guarded by
// `if constexpr (Probe::kEnabled)`: with the default NoSlotProbe
// (mgmt/node_sim_kernel.hpp) the call sites vanish at compile time and the
// kernel is bit-for-bit the untraced build.  NodeTraceProbe is the enabled
// flavour the fleet runner instantiates — it packages each slot into a
// TraceEvent and appends it to the node buffer of the worker running the
// shard (TraceSink::ShardWriter), which distills the node through the
// selective-persistence policy once the kernel returns.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/policy.hpp"

namespace shep {

/// Enabled per-slot probe bound to one node.  operator() is the entire
/// hot-path cost of tracing: build a POD and append it.  The buffer is
/// reserved to the node's whole series before the run, so the append
/// never allocates.
struct NodeTraceProbe {
  static constexpr bool kEnabled = true;

  std::vector<TraceEvent>* events = nullptr;
  std::uint64_t node = 0;
  std::uint64_t cell = 0;

  void operator()(std::uint32_t slot, bool violated, double soc,
                  double predicted_w, double actual_w, double duty,
                  bool outage) const {
    TraceEvent event;
    event.violated = violated;
    event.outage = outage;
    event.slot = slot;
    event.node = node;
    event.cell = cell;
    event.soc = soc;
    event.predicted_w = predicted_w;
    event.actual_w = actual_w;
    event.duty = duty;
    events->push_back(event);
  }
};

}  // namespace shep
