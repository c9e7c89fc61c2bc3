// ext_pareto — the design space as one menu: accuracy vs energy vs RAM.
//
// Tables III/IV and Figs. 6/7 each fix all but one knob.  This extension
// bench sweeps (N, α, D, K) jointly on one volatile and one sunny site,
// attaches each configuration's per-day management energy (hw model) and
// history-matrix RAM, and prints the Pareto-optimal configurations.  The
// paper's guideline configuration should appear on or near this front —
// that is the strongest possible form of "the guidelines are good".
#include <iostream>

#include "common/strings.hpp"
#include "hw/energy_model.hpp"
#include "report/table.hpp"
#include "repro_common.hpp"
#include "sweep/pareto.hpp"
#include "sweep/sweep.hpp"

int main() {
  using namespace shep;
  repro::Banner("Extension", "accuracy / energy / memory Pareto front");

  const auto filter = repro::PaperFilter();
  ThreadPool pool;
  const McuPowerSpec spec;
  const CycleCosts costs;

  // Energy per wake-up depends on K (divisions) far more than on anything
  // else; measure it once per K on a reference trace.
  SynthOptions eopt;
  eopt.days = 30;
  const auto etrace = SynthesizeTrace(SiteByCode("NPCS"), eopt);
  std::vector<ActivityEnergy> energy_by_k(7);
  std::vector<OpCounts> ops_by_k(7);
  for (int k = 1; k <= 6; ++k) {
    WcmaParams p;
    p.alpha = 0.7;
    p.days = 20;
    p.slots_k = k;
    ops_by_k[static_cast<std::size_t>(k)] =
        MeasureWakeupOps(p, etrace, 48).average;
    energy_by_k[static_cast<std::size_t>(k)] = ComputeActivityEnergy(
        spec, costs, ops_by_k[static_cast<std::size_t>(k)]);
  }

  for (const char* code : {"ORNL", "PFCI"}) {
    const auto& site = SiteByCode(code);
    SynthOptions opt;
    opt.days = repro::kTraceDays;
    const auto trace = SynthesizeTrace(site, opt);

    // Collect candidates: for each (N, D, K) keep the best α.
    std::vector<TradeoffPoint> points;
    const auto grid = ParamGrid::Paper();
    for (int n : repro::PaperNs()) {
      if ((kSecondsPerDay / n) % trace.resolution_s() != 0) continue;
      const SweepContext ctx(trace, n);
      if (ctx.series().grid().degenerate()) continue;
      const auto sweep = SweepWcma(ctx, grid, filter, &pool);
      for (std::size_t i_d = 0; i_d < grid.days.size(); ++i_d) {
        for (std::size_t i_k = 0; i_k < grid.ks.size(); ++i_k) {
          const SweepPoint* best = nullptr;
          for (std::size_t i_a = 0; i_a < grid.alphas.size(); ++i_a) {
            const auto& p = sweep.At(i_d, i_k, i_a);
            if (best == nullptr ||
                p.mean_stats.mape < best->mean_stats.mape) {
              best = &p;
            }
          }
          const auto& act =
              energy_by_k[static_cast<std::size_t>(best->slots_k)];
          const auto budget = ComputeDayBudget(
              spec, costs, act, n,
              ops_by_k[static_cast<std::size_t>(best->slots_k)]);
          TradeoffPoint tp;
          tp.mape = best->mean_stats.mape;
          tp.energy_j_per_day = budget.management_j();
          tp.memory_words =
              static_cast<double>(best->days_d) * n;
          tp.slots_per_day = n;
          tp.alpha = best->alpha;
          tp.days_d = best->days_d;
          tp.slots_k = best->slots_k;
          points.push_back(tp);
        }
      }
    }

    const auto front = ParetoFront(points);
    TableBuilder table("Pareto front for " + std::string(code) + " (" +
                       std::to_string(points.size()) +
                       " candidate configurations, " +
                       std::to_string(front.size()) + " non-dominated)");
    table.Columns({"N", "alpha", "D", "K", "MAPE", "mgmt energy/day",
                   "RAM (words)"});
    // The full front repeats long accuracy-vs-RAM plateaus; print every
    // other knee: first few per N plus the extremes.
    std::size_t printed = 0;
    int last_n = -1;
    std::size_t per_n = 0;
    constexpr std::size_t kMaxPerN = 6;
    for (const auto& p : front) {
      if (p.slots_per_day != last_n) {
        last_n = p.slots_per_day;
        per_n = 0;
      }
      if (++per_n > kMaxPerN) continue;
      table.AddRow({std::to_string(p.slots_per_day), FormatFixed(p.alpha, 1),
                    std::to_string(p.days_d), std::to_string(p.slots_k),
                    FormatPercent(p.mape),
                    FormatFixed(p.energy_j_per_day * 1e3, 2) + " mJ",
                    FormatFixed(p.memory_words, 0)});
      ++printed;
    }
    std::cout << table.ToString() << "(showing " << printed << " of "
              << front.size() << " front points, max " << kMaxPerN
              << " per N)\n\n";
  }

  std::cout << "Reading: every front should show the Table III/Fig. 6 "
               "economics at a glance — accuracy is bought with sampling "
               "rate (energy) first and history depth (RAM) second, with "
               "small D and K dominating the cheap end.  The paper's "
               "guideline (N=48, D~10, K=2) sits at the knee.\n";
  return 0;
}
