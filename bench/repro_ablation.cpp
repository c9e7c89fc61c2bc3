// repro_ablation — ablations of design choices beyond those the paper
// already tabulates (README "Synthetic substrate and known deviations"):
//   A. Φ weighting: the paper's ramp θ(k)=k/K vs uniform weights.
//   B. ROI threshold: the 10 %-of-peak cut vs 0 % and 20 %.
//   C. Arithmetic: double vs Q16.16 fixed point (deployment fidelity).
//   D. Predictor family: WCMA vs EWMA (Kansal) vs persistence vs D-day
//      slot average — the baseline landscape the paper positions [5] in.
#include <iostream>
#include <sstream>

#include "common/strings.hpp"
#include "core/ar.hpp"
#include "core/baselines.hpp"
#include "core/ewma.hpp"
#include "core/wcma.hpp"
#include "core/wcma_fixed.hpp"
#include "report/table.hpp"
#include "repro_common.hpp"
#include "sweep/sweep.hpp"

int main() {
  using namespace shep;
  repro::Banner("Ablations", "design choices behind the evaluation");

  ThreadPool pool;
  const auto traces = repro::PaperTraces(&pool);
  const auto filter = repro::PaperFilter();
  constexpr int kN = 48;

  // Configuration from the paper's guidelines: α=0.7, D=20 (we also probe
  // D=10, the memory guideline), K=2.
  WcmaParams guideline;
  guideline.alpha = 0.7;
  guideline.days = 20;
  guideline.slots_k = 2;

  // ----------------------------------------------------- A: Φ weighting
  {
    TableBuilder t("Ablation A: conditioning weights, ramp vs uniform "
                   "(alpha=0.7, D=20, K=4, N=48)");
    t.Columns({"Data Set", "MAPE ramp", "MAPE uniform", "delta (pts)"});
    WcmaParams p = guideline;
    p.slots_k = 4;  // weighting only matters for K > 1; use a wider window
    for (const auto& trace : traces) {
      const SweepContext ctx(trace, kN);
      const auto ramp = ctx.EvaluateConfig(p, filter, WcmaWeighting::kRamp);
      const auto uni =
          ctx.EvaluateConfig(p, filter, WcmaWeighting::kUniform);
      t.AddRow({trace.name(), FormatPercent(ramp.mean.mape),
                FormatPercent(uni.mean.mape),
                FormatFixed((uni.mean.mape - ramp.mean.mape) * 100.0, 2)});
    }
    std::cout << t.ToString()
              << "Expectation: the ramp (recent slots weighted higher) is "
                 "never worse by more than noise, and usually slightly "
                 "better — supporting Eq. 5's design.\n\n";
  }

  // --------------------------------------------------- B: ROI threshold
  {
    TableBuilder t("Ablation B: region-of-interest threshold (guideline "
                   "config, N=48)");
    t.Columns({"Data Set", "MAPE @0%", "MAPE @10% (paper)", "MAPE @20%"});
    // Near-zero dawn references blow the unfiltered MAPE up by tens of
    // orders of magnitude; render those astronomically via exponent.
    auto render = [](double mape) {
      if (mape < 10.0) return FormatPercent(mape);
      std::ostringstream os;
      os.setf(std::ios::scientific);
      os.precision(1);
      os << mape * 100.0 << "%";
      return os.str();
    };
    for (const auto& trace : traces) {
      const SweepContext ctx(trace, kN);
      std::vector<std::string> row{trace.name()};
      for (double thr : {0.0, 0.10, 0.20}) {
        RoiFilter f = filter;
        f.threshold_fraction = thr;
        row.push_back(render(ctx.EvaluateConfig(guideline, f).mean.mape));
      }
      t.AddRow(row);
    }
    std::cout << t.ToString()
              << "Expectation: with no threshold, dawn/dusk slots with tiny "
                 "denominators inflate MAPE dramatically — the paper's "
                 "motivation for excluding them; 10% vs 20% differs far "
                 "less.\n\n";
  }

  // ------------------------------------------------ C: double vs Q16.16
  {
    TableBuilder t("Ablation C: evaluation (double) vs deployment (Q16.16) "
                   "arithmetic (guideline config, N=48)");
    t.Columns({"Data Set", "MAPE double", "MAPE fixed", "delta (pts)"});
    for (const auto& trace : traces) {
      const SlotSeries series(trace, kN);
      Wcma ref(guideline, kN);
      FixedWcma fx(guideline, kN);
      const auto ref_stats =
          ScorePredictor(ref, series, ErrorTarget::kSlotMean, filter);
      const auto fx_stats =
          ScorePredictor(fx, series, ErrorTarget::kSlotMean, filter);
      t.AddRow({trace.name(), FormatPercent(ref_stats.mape),
                FormatPercent(fx_stats.mape),
                FormatFixed((fx_stats.mape - ref_stats.mape) * 100.0, 3)});
    }
    std::cout << t.ToString()
              << "Expectation: Q16.16 quantisation costs well under 0.5 "
                 "MAPE points — the MCU build is faithful to the "
                 "evaluation.\n\n";
  }

  // ----------------------------------------------- D: predictor family
  {
    TableBuilder t("Ablation D: predictor family at N=48 (guideline "
                   "parameters where applicable)");
    t.Columns({"Data Set", "WCMA", "AR(3)", "EWMA(0.5)", "Persistence",
               "SlotAvg(D=20)", "PrevDay"});
    for (const auto& trace : traces) {
      const SlotSeries series(trace, kN);
      Wcma wcma(guideline, kN);
      ArPredictor ar(ArParams{}, kN);
      Ewma ewma(0.5, kN);
      Persistence persist;
      SlotMovingAverage sma(20, kN);
      PreviousDay prev(kN);
      auto mape = [&](Predictor& p) {
        return FormatPercent(
            ScorePredictor(p, series, ErrorTarget::kSlotMean, filter).mape);
      };
      t.AddRow({trace.name(), mape(wcma), mape(ar), mape(ewma),
                mape(persist), mape(sma), mape(prev)});
    }
    std::cout << t.ToString()
              << "Expectation: WCMA < min(EWMA, persistence, slot-average, "
                 "previous-day) on every site — the reason the paper "
                 "evaluates [5] rather than [2].\n";
  }
  return 0;
}
