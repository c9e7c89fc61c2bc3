// Tests for the static-dispatch node-sim kernel (mgmt/node_sim_kernel.hpp)
// and its fleet-side entry point (SimulateSpecNode): every PredictorKind
// runs the kernel at its concrete type, and each must reproduce Make() +
// the classic virtual entry point bit for bit, cost channel included —
// otherwise "fleet results are dispatch-independent" (what lets the
// examples stay on Predictor& while the fleet runs concrete types) would
// silently stop holding.
#include <gtest/gtest.h>

#include "core/ar.hpp"
#include "core/ewma.hpp"
#include "core/wcma.hpp"
#include "fleet/runner.hpp"
#include "hw/costed_fixed.hpp"
#include "mgmt/node_sim_kernel.hpp"
#include "solar/sites.hpp"
#include "solar/synth.hpp"

namespace shep {
namespace {

SlotSeries MakeSeries(const char* site, std::size_t days) {
  SynthOptions opt;
  opt.days = days;
  return SlotSeries(SynthesizeTrace(SiteByCode(site), opt), 48);
}

NodeSimConfig MakeConfig() {
  NodeSimConfig c;
  c.duty.slot_seconds = 1800.0;
  c.duty.active_power_w = 0.40;
  c.storage.capacity_j = 4000.0;
  c.warmup_days = 20;
  return c;
}

void ExpectBitIdentical(const NodeSimResult& a, const NodeSimResult& b) {
  EXPECT_EQ(a.predictor_name, b.predictor_name);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.violation_rate, b.violation_rate);
  EXPECT_EQ(a.mean_duty, b.mean_duty);
  EXPECT_EQ(a.duty_stddev, b.duty_stddev);
  EXPECT_EQ(a.overflow_j, b.overflow_j);
  EXPECT_EQ(a.delivered_j, b.delivered_j);
  EXPECT_EQ(a.harvested_j, b.harvested_j);
  EXPECT_EQ(a.min_level_fraction, b.min_level_fraction);
  EXPECT_EQ(a.mape, b.mape);
  EXPECT_EQ(a.mape_points, b.mape_points);
  EXPECT_EQ(a.has_compute_cost, b.has_compute_cost);
  EXPECT_EQ(a.compute.cycles, b.compute.cycles);
  EXPECT_EQ(a.compute.ops, b.compute.ops);
  EXPECT_EQ(a.compute.predictions, b.compute.predictions);
}

PredictorSpec KindSpec(PredictorKind kind) {
  PredictorSpec spec;
  spec.kind = kind;
  spec.wcma.alpha = 0.7;
  spec.wcma.days = 10;
  spec.wcma.slots_k = 3;
  spec.ewma_weight = 0.5;
  spec.ar.order = 3;
  spec.ar.days = 10;
  return spec;
}

// Every kind: the concrete-type kernel instantiation SimulateSpecNode runs
// must equal Make() + virtual SimulateNode exactly.
TEST(SimulateSpecNode, EveryKindMatchesVirtualPathBitForBit) {
  const auto series = MakeSeries("ORNL", 40);
  const auto config = MakeConfig();
  for (PredictorKind kind :
       {PredictorKind::kWcma, PredictorKind::kWcmaFixed,
        PredictorKind::kWcmaVm, PredictorKind::kEwma, PredictorKind::kAr,
        PredictorKind::kAdaptiveWcma, PredictorKind::kPersistence,
        PredictorKind::kPreviousDay}) {
    SCOPED_TRACE(PredictorKindName(kind));
    const PredictorSpec spec = KindSpec(kind);
    const NodeSimResult fast = SimulateSpecNode(spec, 48, series, config);
    const auto predictor = spec.Make(48);
    const NodeSimResult slow = SimulateNode(*predictor, series, config);
    ExpectBitIdentical(fast, slow);
  }
}

// The compute-cost channel specifically: the concrete instantiation probes
// at compile time (if constexpr), the virtual one via dynamic_cast — both
// must report the identical totals for a cost-reporting backend and agree
// that a float backend reports none.
TEST(SimulateSpecNode, CostChannelMatchesDynamicCastProbe) {
  const auto series = MakeSeries("HSU", 35);
  const auto config = MakeConfig();

  const NodeSimResult fixed =
      SimulateSpecNode(KindSpec(PredictorKind::kWcmaFixed), 48, series, config);
  EXPECT_TRUE(fixed.has_compute_cost);
  EXPECT_GT(fixed.compute.predictions, 0u);
  EXPECT_GT(fixed.compute.cycles, 0.0);

  const NodeSimResult floating =
      SimulateSpecNode(KindSpec(PredictorKind::kWcma), 48, series, config);
  EXPECT_FALSE(floating.has_compute_cost);
  EXPECT_EQ(floating.compute.predictions, 0u);
}

// Direct kernel instantiation on a stack-constructed concrete predictor:
// what the fleet runner executes per node, pinned against the virtual
// reference without going through the PredictorSpec layer.
TEST(SimulateNodeKernel, ConcreteInstantiationEqualsVirtual) {
  const auto series = MakeSeries("ECSU", 40);
  const auto config = MakeConfig();
  WcmaParams params;
  params.alpha = 0.7;
  params.days = 10;
  params.slots_k = 2;

  Wcma concrete(params, 48);
  const NodeSimResult fast = SimulateNodeKernel(concrete, series, config);

  Wcma virtual_instance(params, 48);
  Predictor& as_base = virtual_instance;
  const NodeSimResult slow = SimulateNode(as_base, series, config);
  ExpectBitIdentical(fast, slow);
}

}  // namespace
}  // namespace shep
