// figure.hpp — data-series output for the paper's figures.
//
// The repro binaries cannot render PDFs, so each "figure" is emitted two
// ways: as CSV (machine-readable, plot with any tool) and as a terminal
// ASCII chart that makes the qualitative shape — the thing a synthetic
// reproduction can be compared on (README "Synthetic substrate and known
// deviations") — visible directly in the bench output.
#pragma once

#include <string>
#include <vector>

namespace shep {

/// A named (x, y) series.
struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
};

/// Renders series as CSV: header "x,<name1>,<name2>,..."; series must share
/// the same x vector.
std::string SeriesCsv(const std::vector<Series>& series);

/// Renders one series as a fixed-size ASCII line chart.
std::string AsciiChart(const Series& series, int width = 72, int height = 16);

/// Renders several series as an overlaid ASCII chart, one glyph per series.
std::string AsciiChartMulti(const std::vector<Series>& series, int width = 72,
                            int height = 16);

/// One-line unicode sparkline of the values (8 levels).
std::string Sparkline(const std::vector<double>& values);

}  // namespace shep
