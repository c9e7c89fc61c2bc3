// Reset() parity: a predictor that is reset and re-trained must be
// indistinguishable from a freshly constructed one on the same trace, for
// every PredictorKind (built through PredictorSpec::Make, as a fleet builds
// it) and for SlotMovingAverage.  Also: every predictor with a day history
// rejects a negative D or N before it sizes anything.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "core/ar.hpp"
#include "core/baselines.hpp"
#include "core/wcma.hpp"
#include "core/wcma_fixed.hpp"
#include "fleet/scenario.hpp"
#include "hw/costed_fixed.hpp"
#include "hw/vm_predictor.hpp"
#include "solar/sites.hpp"
#include "solar/synth.hpp"
#include "timeseries/slotting.hpp"

namespace shep {
namespace {

constexpr int kSlotsPerDay = 48;

// Long enough for the AR predictor's covariance to restart at least once
// (ResetParity.ArRunCrossesACovarianceRestart checks that it does).
const SlotSeries& Series() {
  static const SlotSeries* series = [] {
    SynthOptions opt;
    opt.days = 400;
    static const PowerTrace trace = SynthesizeTrace(SiteByCode("SPMD"), opt);
    return new SlotSeries(trace, kSlotsPerDay);
  }();
  return *series;
}

// Runs the predictor over the whole series and returns every prediction.
std::vector<double> Predictions(Predictor& p) {
  const auto& s = Series();
  std::vector<double> out;
  out.reserve(s.size());
  for (std::size_t g = 0; g < s.size(); ++g) {
    p.Observe(s.boundary(g));
    out.push_back(p.PredictNext());
  }
  return out;
}

// Dirties `reused` with a full pass and part of one more day, so Reset()
// must also rewind the day cursor; resets it; and expects the next pass to
// match `fresh` bit for bit.
void ExpectResetMatchesFresh(Predictor& reused, Predictor& fresh) {
  Predictions(reused);
  for (int g = 0; g < kSlotsPerDay / 2 + 1; ++g) {
    reused.Observe(Series().boundary(static_cast<std::size_t>(g)));
  }
  reused.Reset();
  EXPECT_FALSE(reused.Ready());
  const auto got = Predictions(reused);
  const auto want = Predictions(fresh);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "prediction " << i;
  }
}

class ResetParityByKind : public ::testing::TestWithParam<PredictorKind> {};

TEST_P(ResetParityByKind, MatchesFreshPredictor) {
  PredictorSpec spec;
  spec.kind = GetParam();
  spec.wcma.days = 5;
  const auto reused = spec.Make(kSlotsPerDay);
  const auto fresh = spec.Make(kSlotsPerDay);
  // For VmWCMA the VM data memory persists across runs by design, but every
  // input word the routine reads is re-poked each wake-up, so stale state
  // from the pre-Reset pass must not leak through.
  ExpectResetMatchesFresh(*reused, *fresh);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ResetParityByKind,
    ::testing::Values(PredictorKind::kWcma, PredictorKind::kWcmaFixed,
                      PredictorKind::kWcmaVm, PredictorKind::kEwma,
                      PredictorKind::kAr, PredictorKind::kAdaptiveWcma,
                      PredictorKind::kPersistence, PredictorKind::kPreviousDay),
    [](const ::testing::TestParamInfo<PredictorKind>& info) {
      return std::string(PredictorKindName(info.param));
    });

TEST(ResetParity, SlotMovingAverageMatchesFreshPredictor) {
  SlotMovingAverage reused(5, kSlotsPerDay);
  SlotMovingAverage fresh(5, kSlotsPerDay);
  ExpectResetMatchesFresh(reused, fresh);
}

TEST(ResetParity, WcmaUniformWeightingMatchesFreshPredictor) {
  WcmaParams params;
  params.days = 5;
  Wcma reused(params, kSlotsPerDay, WcmaWeighting::kUniform);
  Wcma fresh(params, kSlotsPerDay, WcmaWeighting::kUniform);
  ExpectResetMatchesFresh(reused, fresh);
}

TEST(ResetParity, ArRunCrossesACovarianceRestart) {
  // Without a restart in the run, the AR case above would not show that
  // Reset() also clears what a restart leaves behind.  An RLS update never
  // grows a diagonal entry of λP past the P it started from, unless P was
  // restarted at δI first (ArPredictor::RlsUpdate).
  const ArParams params = PredictorSpec{}.ar;
  ArPredictor ar(params, kSlotsPerDay);
  const std::size_t dim = static_cast<std::size_t>(params.order) + 1;
  std::vector<double> before = ar.covariance();
  std::size_t restarts = 0;
  const auto& s = Series();
  for (std::size_t g = 0; g < s.size(); ++g) {
    const std::uint64_t updates = ar.updates();
    ar.Observe(s.boundary(g));
    if (ar.updates() == updates) continue;
    const std::vector<double>& after = ar.covariance();
    for (std::size_t i = 0; i < dim; ++i) {
      const double start = before[i * dim + i];
      if (params.lambda * after[i * dim + i] > start + 1e-9 * std::abs(start)) {
        ++restarts;
        break;
      }
    }
    before = after;
  }
  EXPECT_GE(restarts, 1u) << "after " << ar.updates() << " updates";
}

TEST(PredictorSizes, NegativeDaysOrSlotsThrowInvalidArgument) {
  WcmaParams wcma;
  wcma.days = -1;
  AdaptiveWcmaParams adaptive;
  adaptive.days = -1;
  ArParams ar;
  ar.days = -1;
  EXPECT_THROW(Wcma(wcma, kSlotsPerDay), std::invalid_argument);
  EXPECT_THROW(AdaptiveWcma(adaptive, kSlotsPerDay), std::invalid_argument);
  EXPECT_THROW(VmWcmaPredictor(wcma, kSlotsPerDay), std::invalid_argument);
  EXPECT_THROW(ArPredictor(ar, kSlotsPerDay), std::invalid_argument);
  EXPECT_THROW(SlotMovingAverage(-1, kSlotsPerDay), std::invalid_argument);

  EXPECT_THROW(Wcma(WcmaParams{}, -1), std::invalid_argument);
  EXPECT_THROW(AdaptiveWcma(AdaptiveWcmaParams{}, -1), std::invalid_argument);
  EXPECT_THROW(VmWcmaPredictor(WcmaParams{}, -1), std::invalid_argument);
  EXPECT_THROW(ArPredictor(ArParams{}, -1), std::invalid_argument);
  EXPECT_THROW(SlotMovingAverage(5, -1), std::invalid_argument);
  EXPECT_THROW(PreviousDay(-1), std::invalid_argument);
}

TEST(ResetParity, VmWcmaResetClearsCycleCounters) {
  WcmaParams params;
  params.days = 5;
  VmWcmaPredictor p(params, kSlotsPerDay);
  Predictions(p);
  ASSERT_GT(p.predict_calls(), 0u);
  ASSERT_GT(p.vm_runs(), 0u);
  ASSERT_GT(p.ComputeCost().cycles, 0.0);
  ASSERT_GT(p.ComputeCost().ops, 0u);
  ASSERT_GT(p.last_cycles(), 0.0);

  p.Reset();
  EXPECT_EQ(p.predict_calls(), 0u);
  EXPECT_EQ(p.vm_runs(), 0u);
  EXPECT_EQ(p.ComputeCost().cycles, 0.0);
  EXPECT_EQ(p.ComputeCost().ops, 0u);
  EXPECT_EQ(p.ComputeCost().predictions, 0u);
  EXPECT_EQ(p.last_cycles(), 0.0);
  EXPECT_EQ(p.total_ops().total(), 0u);
}

TEST(ResetParity, CostedFixedWcmaMatchesBareFixedWcma) {
  // The hw wrapper must not perturb the prediction stream it forwards, and
  // its cost report must clear on Reset like the inner counters do.
  WcmaParams params;
  params.days = 5;
  CostedFixedWcma wrapped(params, kSlotsPerDay);
  FixedWcma bare(params, kSlotsPerDay);
  const auto got = Predictions(wrapped);
  const auto want = Predictions(bare);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], want[i]) << "prediction " << i;
  }
  ASSERT_GT(wrapped.ComputeCost().cycles, 0.0);
  ASSERT_GT(wrapped.ComputeCost().predictions, 0u);
  wrapped.Reset();
  EXPECT_EQ(wrapped.ComputeCost().cycles, 0.0);
  EXPECT_EQ(wrapped.ComputeCost().ops, 0u);
  EXPECT_EQ(wrapped.ComputeCost().predictions, 0u);
}

TEST(ResetParity, FixedWcmaResetClearsOpCounters) {
  WcmaParams params;
  params.days = 5;
  FixedWcma p(params, kSlotsPerDay);
  Predictions(p);
  ASSERT_GT(p.observe_calls(), 0u);
  ASSERT_GT(p.predict_calls(), 0u);

  p.Reset();
  EXPECT_EQ(p.observe_calls(), 0u);
  EXPECT_EQ(p.predict_calls(), 0u);
  EXPECT_EQ(p.observe_ops().add + p.observe_ops().mul + p.observe_ops().div +
                p.observe_ops().load + p.observe_ops().store +
                p.observe_ops().branch,
            0u);
  EXPECT_EQ(p.predict_ops().add + p.predict_ops().mul + p.predict_ops().div +
                p.predict_ops().load + p.predict_ops().store +
                p.predict_ops().branch,
            0u);
}

}  // namespace
}  // namespace shep
