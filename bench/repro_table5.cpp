// repro_table5 — Table V: "Results for dynamic parameters selection
// varying both α and K, only K at a fixed α and vice versa."
//
// The clairvoyant oracle study (Sec. IV-C): at every prediction the best
// α and/or K on the grid is chosen with perfect hindsight, lower-bounding
// what a realisable dynamic selector could achieve.  D is fixed at 20.
// The paper tabulates four sites (SPMD, ECSU, ORNL, HSU); we print all six
// for completeness — the extra two desert sites behave consistently.
#include <iostream>

#include "common/strings.hpp"
#include "report/table.hpp"
#include "repro_common.hpp"
#include "sweep/dynamic.hpp"
#include "sweep/sweep.hpp"

int main() {
  using namespace shep;
  repro::Banner("Table V", "clairvoyant dynamic parameter selection");

  ThreadPool pool;
  const auto traces = repro::PaperTraces(&pool);
  const auto grid = ParamGrid::Paper();
  const auto filter = repro::PaperFilter();
  constexpr int kDynamicD = 20;

  TableBuilder table(
      "Table V: static vs clairvoyant-dynamic MAPE (D = 20)");
  table.Columns({"Data Set", "N", "Static MAPE", "K+a MAPE", "a (K only)",
                 "K-only MAPE", "K (a only)", "a-only MAPE"});

  double gain_accum = 0.0;
  std::size_t gain_count = 0;
  for (const auto& trace : traces) {
    bool first_row = true;
    for (int n : repro::PaperNs()) {
      const bool representable =
          (kSecondsPerDay / n) % trace.resolution_s() == 0;
      if (!representable) {
        table.AddRow({first_row ? trace.name() : "", std::to_string(n), "-",
                      "-", "-", "-", "-", "-"});
        first_row = false;
        continue;
      }
      const SweepContext ctx(trace, n);
      if (ctx.series().grid().degenerate()) {
        table.AddRow({first_row ? trace.name() : "", std::to_string(n),
                      "0 (*)", "0 (*)", "n/a", "0 (*)", "n/a", "0 (*)"});
        first_row = false;
        continue;
      }
      // Static reference: the Table III optimum (D free) for this (set, N).
      const auto sweep = SweepWcma(ctx, grid, filter, &pool);
      const double static_mape = sweep.BestByMape().mean_stats.mape;
      const auto dyn = EvaluateDynamic(ctx, kDynamicD, grid, filter);

      table.AddRow({first_row ? trace.name() : "", std::to_string(n),
                    FormatPercent(static_mape),
                    FormatPercent(dyn.both_mape),
                    FormatFixed(dyn.k_only_alpha, 1),
                    FormatPercent(dyn.k_only_mape),
                    std::to_string(dyn.alpha_only_k),
                    FormatPercent(dyn.alpha_only_mape)});
      first_row = false;
      gain_accum += static_mape - dyn.both_mape;
      ++gain_count;
    }
    table.AddSeparator();
  }
  std::cout << table.ToString();
  std::cout << "(*) degenerate N=288 on 5-minute data, as in Table III.\n";

  std::cout << "\nAverage (static - dynamic K+a) MAPE gain across "
            << gain_count << " cells: "
            << FormatPercent(gain_accum / static_cast<double>(gain_count))
            << "\n";
  std::cout << "\nShape checks vs the paper:\n"
            << "  * K+a oracle gives the largest gain, then a-only, then "
               "K-only\n"
            << "  * absolute gains grow as N decreases\n"
            << "  * the K-only oracle prefers LOW fixed alpha (paper: "
               "0.0-0.4) and the a-only oracle prefers HIGH fixed K "
               "(paper: mostly 6)\n"
            << "  * dynamic accuracy at N=48 rivals static accuracy at "
               "N=288 (paper Sec. IV-C)\n";
  return 0;
}
