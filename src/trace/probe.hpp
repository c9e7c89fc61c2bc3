// probe.hpp — the hook the node-sim kernel calls once per slot when
// tracing is on.
//
// SimulateNodeKernel takes its probe as a template parameter guarded by
// `if constexpr (Probe::kEnabled)`: with the default NoSlotProbe
// (mgmt/node_sim_kernel.hpp) the call sites vanish at compile time and the
// kernel is bit-for-bit the untraced build.  NodeTraceProbe is the enabled
// flavour the fleet runner instantiates — it hands each slot to the
// TraceDistiller (trace/policy.hpp) of the worker running the shard
// (TraceSink::ShardWriter), which decides the slot's fate as soon as its
// persistence window has passed.
#pragma once

#include <cstdint>

#include "trace/policy.hpp"

namespace shep {

/// Enabled per-slot probe bound to one node (the distiller's BeginNode
/// names it).  operator() is the entire hot-path cost of tracing: one
/// Push into the distiller's fixed delay line, which never allocates
/// beyond the growth of the shard's output vectors.
struct NodeTraceProbe {
  static constexpr bool kEnabled = true;

  TraceDistiller* distiller = nullptr;

  void operator()(std::uint32_t slot, bool violated, double soc,
                  double predicted_w, double actual_w, double duty,
                  bool outage) const {
    distiller->Push(slot, violated, soc, predicted_w, actual_w, duty, outage);
  }
};

}  // namespace shep
