// repro_common.hpp — shared plumbing for the bench/repro_* harnesses.
//
// Every reproduction binary uses the same protocol as the paper's Sec. IV-A:
// 365-day traces, evaluation over days 21..365, samples >= 10 % of peak.
#pragma once

#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "common/threadpool.hpp"
#include "metrics/error.hpp"
#include "solar/synth.hpp"
#include "timeseries/trace.hpp"

namespace shep::repro {

/// Trace length: the paper's year.
inline constexpr std::size_t kTraceDays = 365;

/// The paper's evaluation filter: days 21.. (0-based index 20), >= 10 % of
/// the peak value.
inline RoiFilter PaperFilter() {
  RoiFilter f;
  f.first_day = 20;
  f.threshold_fraction = 0.10;
  return f;
}

/// Synthesizes all six paper sites at kTraceDays length, on `pool` when
/// one is given (bit-identical to the serial corpus).
inline std::vector<PowerTrace> PaperTraces(ThreadPool* pool = nullptr) {
  SynthOptions opt;
  opt.days = kTraceDays;
  return SynthesizePaperTraces(opt, pool);
}

/// Prints the standard harness banner.
inline void Banner(const std::string& artifact, const std::string& what) {
  std::cout << "==============================================================\n"
            << "Reproduction of " << artifact << " — " << what << "\n"
            << "Protocol: " << kTraceDays
            << "-day synthetic traces (README: Synthetic substrate), "
               "evaluation days 21.., samples >= 10% of peak, MAPE per "
               "Sec. III\n"
            << "==============================================================\n";
}

/// The paper's N axis.
inline const std::vector<int>& PaperNs() {
  static const std::vector<int> ns{288, 96, 72, 48, 24};
  return ns;
}

}  // namespace shep::repro
