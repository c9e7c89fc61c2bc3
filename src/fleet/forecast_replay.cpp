#include "fleet/forecast_replay.hpp"

#include <type_traits>

namespace shep {

RecordedForecast RecordForecast(const PredictorSpec& spec, int slots_per_day,
                                const SlotSeries& series) {
  return WithPredictor(spec, slots_per_day, [&](auto& predictor) {
    using P = std::decay_t<decltype(predictor)>;
    RecordedForecast forecast;
    predictor.Reset();
    forecast.name = predictor.Name();
    forecast.predictions.resize(series.size() > 0 ? series.size() - 1 : 0);
    for (std::size_t g = 0; g < forecast.predictions.size(); ++g) {
      predictor.Observe(series.boundary(g));
      forecast.predictions[g] = predictor.PredictNext();
    }
    if constexpr (std::is_base_of_v<ComputeCostReporter, P>) {
      forecast.has_compute_cost = true;
      forecast.compute = predictor.ComputeCost();
    }
    return forecast;
  });
}

}  // namespace shep
