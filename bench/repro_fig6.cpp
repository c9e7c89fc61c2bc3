// repro_fig6 — Fig. 6: "Prediction algorithm overhead at different N":
// the sampling+prediction energy per day as a percentage of the deep-sleep
// energy per day, for N in {288, 96, 72, 48, 24}.
#include <iostream>

#include "common/strings.hpp"
#include "hw/energy_model.hpp"
#include "report/figure.hpp"
#include "report/table.hpp"
#include "repro_common.hpp"

int main() {
  using namespace shep;
  repro::Banner("Figure 6", "management overhead vs sampling rate N");

  const McuPowerSpec spec;
  const CycleCosts costs;

  SynthOptions opt;
  opt.days = 60;
  const auto trace = SynthesizeTrace(SiteByCode("NPCS"), opt);
  WcmaParams p;
  p.alpha = 0.7;
  p.days = 20;
  p.slots_k = 2;  // the paper's guideline configuration
  const auto ops = MeasureWakeupOps(p, trace, 48).full_work;
  const auto act = ComputeActivityEnergy(spec, costs, ops);

  TableBuilder table("Fig. 6 data: per-day energy and overhead");
  table.Columns({"N", "sampling/day", "prediction/day", "sleep/day",
                 "%overhead"});
  Series series;
  series.name = "% overhead vs sleep energy";
  const double paper_values[] = {4.85, 1.62, 1.21, 0.81, 0.40};
  Series paper;
  paper.name = "paper (Fig. 6)";
  std::size_t i = 0;
  for (int n : repro::PaperNs()) {
    const auto b = ComputeDayBudget(spec, costs, act, n, ops);
    table.AddRow({std::to_string(n),
                  FormatFixed(b.sampling_j * 1e3, 2) + " mJ",
                  FormatFixed(b.prediction_j * 1e3, 3) + " mJ",
                  FormatFixed(b.sleep_j * 1e3, 0) + " mJ",
                  FormatFixed(b.OverheadPercent(), 2) + "%"});
    series.x.push_back(n);
    series.y.push_back(b.OverheadPercent());
    paper.x.push_back(n);
    paper.y.push_back(paper_values[i++]);
  }
  std::cout << table.ToString() << "\n";
  std::cout << AsciiChartMulti({series, paper}, 72, 14) << "\n";
  std::cout << "CSV:\n" << SeriesCsv({series, paper});
  std::cout << "\nShape check: overhead scales linearly with N and stays "
               "under ~5% of sleep energy even at N=288 (paper: 4.85%, "
               "0.40% at N=24).\n";
  return 0;
}
