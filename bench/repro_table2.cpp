// repro_table2 — Table II: "Prediction error and parameter values using
// different error evaluations at N = 48 for six solar power data sets."
//
// The paper's methodological ablation: optimizing the predictor's (α, D, K)
// under MAPE′ (error vs the next boundary sample, as prior work did) versus
// under MAPE (error vs the predicted slot's mean power).  Expected shape:
// MAPE optima report much lower error and select a distinctly higher α.
#include <iostream>

#include "common/strings.hpp"
#include "report/table.hpp"
#include "repro_common.hpp"
#include "sweep/sweep.hpp"

int main() {
  using namespace shep;
  repro::Banner("Table II", "MAPE' vs MAPE optimization at N = 48");

  ThreadPool pool;
  const auto traces = repro::PaperTraces(&pool);
  const auto grid = ParamGrid::Paper();
  const auto filter = repro::PaperFilter();

  TableBuilder table(
      "Table II: optimized (alpha, D, K) under each error function, N = 48");
  table.Columns({"Data set", "a'", "D'", "K'", "MAPE'", "a", "D", "K",
                 "MAPE"});

  double sum_alpha_prime = 0.0;
  double sum_alpha = 0.0;
  for (const auto& trace : traces) {
    const SweepContext ctx(trace, 48);
    const auto sweep = SweepWcma(ctx, grid, filter, &pool);
    const auto& by_prime = sweep.BestByMapePrime();
    const auto& by_mape = sweep.BestByMape();
    sum_alpha_prime += by_prime.alpha;
    sum_alpha += by_mape.alpha;
    table.AddRow({trace.name(), FormatFixed(by_prime.alpha, 1),
                  std::to_string(by_prime.days_d),
                  std::to_string(by_prime.slots_k),
                  FormatPercent(by_prime.boundary_stats.mape),
                  FormatFixed(by_mape.alpha, 1),
                  std::to_string(by_mape.days_d),
                  std::to_string(by_mape.slots_k),
                  FormatPercent(by_mape.mean_stats.mape)});
  }
  std::cout << table.ToString();

  std::cout << "\nShape checks vs the paper:\n"
            << "  * MAPE values are significantly lower than MAPE' values\n"
            << "  * the MAPE-optimal alpha is higher (paper: 0.6-0.7 vs "
               "0.0-0.4); measured means: "
            << FormatFixed(sum_alpha / 6.0, 2) << " vs "
            << FormatFixed(sum_alpha_prime / 6.0, 2) << "\n"
            << "  * D optimizes near its maximum (15-20) in both columns\n";
  return 0;
}
