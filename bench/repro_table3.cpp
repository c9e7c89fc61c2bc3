// repro_table3 — Table III: "Prediction results at different values of N."
//
// For every data set and every N in {288, 96, 72, 48, 24}: the optimized
// (α, D, K) under MAPE, the achieved MAPE, and the best MAPE achievable
// with K pinned to 2 (the paper's simplification guideline).  N=288 on the
// 5-minute sites is degenerate (slot mean == boundary sample) and printed
// as "0† / n/a" exactly as the paper footnotes it.
#include <iostream>

#include "common/strings.hpp"
#include "report/table.hpp"
#include "repro_common.hpp"
#include "sweep/sweep.hpp"

int main() {
  using namespace shep;
  repro::Banner("Table III", "optimized parameters and MAPE across N");

  ThreadPool pool;
  const auto traces = repro::PaperTraces(&pool);
  const auto grid = ParamGrid::Paper();
  const auto filter = repro::PaperFilter();

  TableBuilder table("Table III: prediction results at different N");
  table.Columns({"Data Set", "N", "alpha", "D", "K", "MAPE", "MAPE@K=2"});

  for (const auto& trace : traces) {
    bool first_row = true;
    for (int n : repro::PaperNs()) {
      // 5-minute data cannot form N=288 slots with M > 1.
      const bool representable =
          (kSecondsPerDay / n) % trace.resolution_s() == 0;
      if (!representable) {
        table.AddRow({first_row ? trace.name() : "", std::to_string(n), "-",
                      "-", "-", "resolution", "n/a"});
        first_row = false;
        continue;
      }
      const SweepContext ctx(trace, n);
      const auto sweep = SweepWcma(ctx, grid, filter, &pool);
      const auto& best = sweep.BestByMape();
      if (sweep.degenerate) {
        // The paper's "0†": with one sample per slot, alpha = 1 scores an
        // exact 0 because prediction and reference coincide.
        table.AddRow({first_row ? trace.name() : "", std::to_string(n),
                      FormatFixed(best.alpha, 1), "n/a", "n/a", "0 (*)",
                      "0 (*)"});
        first_row = false;
        continue;
      }
      const auto* k2 = sweep.BestByMapeWithK(2);
      const std::string k2_cell = best.slots_k == 2 || k2 == nullptr
                                      ? "n/a"
                                      : FormatPercent(k2->mean_stats.mape);
      table.AddRow({first_row ? trace.name() : "", std::to_string(n),
                    FormatFixed(best.alpha, 1), std::to_string(best.days_d),
                    std::to_string(best.slots_k),
                    FormatPercent(best.mean_stats.mape), k2_cell});
      first_row = false;
    }
    if (&trace != &traces.back()) table.AddSeparator();
  }
  std::cout << table.ToString();
  std::cout << "(*) degenerate: at N=288 a 5-minute trace has one sample "
               "per slot, so the slot mean equals the boundary sample and "
               "alpha=1 is trivially exact — the paper's footnote case.\n";

  std::cout << "\nShape checks vs the paper:\n"
            << "  * MAPE decreases monotonically with N on every site\n"
            << "  * alpha rises toward 1 as N grows (0.5-0.6 at N=24, "
               "0.8-1.0 at N=288)\n"
            << "  * D optimizes near 20; K stays small (1-5)\n"
            << "  * MAPE@K=2 is within a fraction of a point of the "
               "unconstrained optimum\n"
            << "  * site ordering: PFCI/NPCS (desert) easiest, ORNL/SPMD "
               "(convective) hardest\n";
  return 0;
}
