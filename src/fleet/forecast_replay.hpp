// forecast_replay.hpp — one predictor pass shared by the storage tiers of
// a weather lane.
//
// Every PredictorKind reads only the lane's boundary samples: nothing it
// computes depends on the node's storage, controller or initial charge.
// So in a healthy run every node of one (lane, predictor design) pair sees
// the same PredictNext() at every slot, whatever its tier.  RunFleetShards
// records that sequence once (RecordForecast) and runs each such node
// through the unchanged SimulateNodeKernel on a ForecastReplay, which hands
// the recording back slot by slot.  The node's result is bit-identical to
// a run on the real predictor, name and compute-cost channel included
// (pinned by tests/test_fleet_distributed.cpp).
//
// Faulted nodes never replay: an outage Reset()s the predictor mid-run and
// a dropout changes what it observes, both per node.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "fleet/scenario.hpp"
#include "timeseries/slotting.hpp"

namespace shep {

/// One healthy predictor pass over a weather lane.
struct RecordedForecast {
  std::string name;               ///< the predictor's Name().
  bool has_compute_cost = false;  ///< it is a ComputeCostReporter.
  PredictorComputeCost compute;   ///< its totals after the whole pass.
  /// Raw PredictNext() after Observe(boundary(g)), for every slot g the
  /// kernel simulates (series.size() - 1 of them).
  std::vector<double> predictions;
};

/// Builds `spec`'s predictor, Reset()s it and feeds it `series` exactly as
/// SimulateNodeKernel's healthy loop does, recording every prediction.
RecordedForecast RecordForecast(const PredictorSpec& spec, int slots_per_day,
                                const SlotSeries& series);

/// Replays a RecordedForecast to SimulateNodeKernel: Observe() moves a
/// cursor, PredictNext() returns the recorded value, Reset() rewinds.
/// Only the kernel's healthy loop drives it — one Observe() then one
/// PredictNext() per slot, from a Reset() — and no virtual call is made.
/// A recording of a ComputeCostReporter replays as CostedForecastReplay,
/// so the kernel's compile-time cost probe answers as it did for the
/// recorded predictor; WithReplay picks the type.
class ForecastReplay {
 public:
  explicit ForecastReplay(const RecordedForecast& forecast)
      : forecast_(&forecast) {}

  void Reset() { cursor_ = 0; }
  void Observe(double /*boundary_sample*/) { ++cursor_; }
  double PredictNext() const { return forecast_->predictions[cursor_ - 1]; }
  std::string Name() const { return forecast_->name; }

 protected:
  const RecordedForecast* forecast_;

 private:
  std::size_t cursor_ = 0;  ///< slots observed since Reset().
};

class CostedForecastReplay final : public ForecastReplay,
                                   public ComputeCostReporter {
 public:
  using ForecastReplay::ForecastReplay;
  PredictorComputeCost ComputeCost() const override {
    return forecast_->compute;
  }
};

/// Builds the ForecastReplay matching `forecast` on the stack and returns
/// f(replay) — WithPredictor's counterpart for a recorded pass.
template <class F>
auto WithReplay(const RecordedForecast& forecast, F&& f) {
  if (forecast.has_compute_cost) {
    CostedForecastReplay replay(forecast);
    return f(replay);
  }
  ForecastReplay replay(forecast);
  return f(replay);
}

}  // namespace shep
