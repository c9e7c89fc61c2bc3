// repro_table1 — Table I: "Details of the data sets used."
//
// Paper: six NREL MIDC sites with 105,120 (5-min) or 525,600 (1-min)
// observations over 365 days.  We print the same inventory for the
// synthetic substitutes, plus the climate statistics that drive the
// prediction-difficulty ordering (stationary weather mix, daily-energy
// coefficient of variation).
#include <cmath>
#include <iostream>

#include "common/mathutil.hpp"
#include "common/strings.hpp"
#include "report/table.hpp"
#include "repro_common.hpp"
#include "solar/weather.hpp"

int main() {
  using namespace shep;
  repro::Banner("Table I", "data-set inventory");

  const auto traces = repro::PaperTraces();

  TableBuilder table("Table I: details of the (synthetic) data sets used");
  table.Columns({"Data Set", "Location", "Observations", "Days", "Resolution",
                 "pi(clear/partly/overcast)", "daily-energy CV"});
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto& trace = traces[i];
    const auto& site = PaperSites()[i];
    const WeatherModel model(site.weather);
    const auto pi = model.StationaryDistribution();

    std::vector<double> daily(trace.days());
    for (std::size_t d = 0; d < trace.days(); ++d) {
      daily[d] = trace.day_energy_j(d);
    }
    const double cv = std::sqrt(Variance(daily)) / Mean(daily);

    table.AddRow({trace.name(), site.location, std::to_string(trace.size()),
                  std::to_string(trace.days()),
                  std::to_string(trace.resolution_s() / 60) +
                      (trace.resolution_s() == 60 ? " minute" : " minutes"),
                  FormatFixed(pi[0], 2) + "/" + FormatFixed(pi[1], 2) + "/" +
                      FormatFixed(pi[2], 2),
                  FormatFixed(cv, 3)});
  }
  std::cout << table.ToString();

  std::cout << "\nPaper values for reference: 5-minute sites record 105,120\n"
               "observations and 1-minute sites 525,600 over 365 days; the\n"
               "synthetic inventory above must match those counts exactly.\n";
  return 0;
}
