// repro_table4 — Table IV: "Energy consumption of power sampling and
// prediction algorithm", plus the Fig. 5 wake-up sequence.
//
// The paper measured an MSP430F1611 at 3 V / 5 MHz.  Here the same numbers
// come from the hardware model (README "Synthetic substrate and known
// deviations"): the ADC sample cost is Vref-settle dominated; the
// prediction cost is measured two independent ways — (a) operation counts
// of the fixed-point predictor run over a real trace, and (b) executing
// the prediction routine on the cycle-counted MicroVm — and both are
// converted through the active-cycle energy.
#include <iostream>

#include "common/strings.hpp"
#include "hw/energy_model.hpp"
#include "hw/predictor_program.hpp"
#include "report/table.hpp"
#include "repro_common.hpp"

namespace {

using namespace shep;

/// Representative mid-day VM inputs for the routine's dynamic cost.
WcmaVmInputs MidDayInputs(int k) {
  WcmaVmInputs in;
  in.sample = 0.9;
  in.mu_next = 1.0;
  for (int i = 0; i < k; ++i) {
    in.recent_samples.push_back(0.8 + 0.02 * i);
    in.recent_mus.push_back(0.95);
  }
  return in;
}

}  // namespace

int main() {
  using namespace shep;
  repro::Banner("Table IV (and Fig. 5)",
                "energy of power sampling and prediction");

  const McuPowerSpec spec;
  const CycleCosts costs;

  std::cout << "Fig. 5 wake-up sequence (modelled):\n"
            << "  1. wake on sample timer                  (deep sleep -> "
               "active)\n"
            << "  2. enable Vref, sleep "
            << FormatFixed(spec.vref_settle_s * 1000.0, 0) << " ms settle @ "
            << FormatFixed(spec.vref_current_a * 1e3, 2) << " mA\n"
            << "  3. A/D conversion ("
            << FormatFixed(spec.adc_conversion_s * 1e6, 0) << " us)\n"
            << "  4. disable Vref, run prediction, deep sleep until next "
               "slot\n\n";

  // Steady-state operation counts measured on a sunny trace at N = 48.
  SynthOptions opt;
  opt.days = 60;
  const auto trace = SynthesizeTrace(SiteByCode("NPCS"), opt);

  struct Config {
    int k;
    double alpha;
  };
  const Config configs[] = {{1, 0.7}, {7, 0.7}, {7, 0.0}};

  TableBuilder table("Table IV: energy per activity");
  table.Columns({"Hardware Activity", "Energy/Cycle (model)",
                 "VM cross-check"});
  table.AddRow({"A/D conversion",
                FormatFixed(spec.AdcSampleEnergyJ() * 1e6, 1) + " uJ", "-"});

  ActivityEnergy typical{};
  OpCounts typical_ops;
  for (const auto& cfg : configs) {
    WcmaParams p;
    p.alpha = cfg.alpha;
    p.days = 20;
    p.slots_k = cfg.k;
    const auto ops = MeasureWakeupOps(p, trace, 48).full_work;
    const auto act = ComputeActivityEnergy(spec, costs, ops);
    if (cfg.k == 1) {
      typical = act;
      typical_ops = ops;
    }

    // Independent measurement: run the predict routine on the MicroVm.
    WcmaProgramLayout layout;
    layout.slots_k = cfg.k;
    layout.alpha = cfg.alpha;
    const auto vm_run = RunWcmaOnVm(layout, MidDayInputs(cfg.k), costs);
    const double vm_predict_j =
        (vm_run.vm.cycles + costs.wakeup_overhead) *
        spec.ActiveCycleEnergyJ();

    table.AddRow(
        {"A/D + Prediction (K=" + std::to_string(cfg.k) +
             ", a=" + FormatFixed(cfg.alpha, 1) + ")",
         FormatFixed(act.sample_and_predict_j * 1e6, 2) + " uJ",
         FormatFixed((spec.AdcSampleEnergyJ() + vm_predict_j) * 1e6, 2) +
             " uJ"});
  }

  const double sleep_day_j = spec.SleepPowerW() * 86400.0;
  table.AddRow({"Low power (sleep) mode 1.4uA@3V",
                FormatFixed(sleep_day_j * 1e3, 0) + " mJ per day", "-"});
  table.AddRow({"A/D conversion 48 samples per day",
                FormatFixed(spec.AdcSampleEnergyJ() * 48.0 * 1e6, 0) +
                    " uJ per day",
                "-"});
  const auto budget48 =
      ComputeDayBudget(spec, costs, typical, 48, typical_ops);
  table.AddRow({"A/D + prediction 48 times per day",
                FormatFixed(budget48.management_j() * 1e6, 0) + " uJ per day",
                "-"});
  std::cout << table.ToString();

  std::cout << "\nPaper anchors: ADC 55 uJ; ADC+prediction 58.6 uJ (K=1, "
               "a=0.7), 63.4 uJ (K=7, a=0.7), 61.5 uJ (K=7, a=0); sleep "
               "356 mJ/day; 2640/2880 uJ per day at N=48.\n"
            << "Shape checks: prediction grows with K by roughly one "
               "software division per slot; a=0 is cheaper than a=0.7 at "
               "equal K; sampling dominates prediction; management is <1% "
               "of sleep energy at N=48.\n"
            << "Known deviation (README: Synthetic substrate): our a=0 "
               "saving is smaller than the paper's 1.9 uJ because only the "
               "blend multiplies are elided; the paper's firmware likely "
               "skipped a software floating-point path we do not model.\n";
  return 0;
}
