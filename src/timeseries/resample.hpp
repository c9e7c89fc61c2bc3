// resample.hpp — resolution conversion between traces.
//
// The paper's data sets come at 1-minute and 5-minute resolution (Table I);
// downsampling (block mean) lets the same synthetic site be rendered at
// either resolution.
#pragma once

#include <span>
#include <vector>

namespace shep {

/// Downsamples by block-averaging: out[i] is the mean of the `factor`
/// input samples in[i*factor .. i*factor+factor-1], so total energy is
/// preserved at the `factor`-times coarser resolution.  `out` is resized
/// to in.size()/factor; `factor` must be >= 1 and divide in.size().
/// Callers that already hold day-aligned samples (trace synthesis,
/// per-worker fleet scratch) reuse `out` across traces.
void DownsampleMeanInto(std::span<const double> in, int factor,
                        std::vector<double>& out);

}  // namespace shep
