#include "fleet/forecast_replay.hpp"

#include <type_traits>

#include "common/check.hpp"

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

ForecastMemo::ForecastMemo(const ShardPlan& plan,
                           const std::vector<std::size_t>& shards)
    : plan_(plan),
      unrun_(plan.shards.size(), false),
      pairs_(plan.lanes.size() * plan.matrix.spec.predictors.size()) {
  const bool faulted = plan.matrix.spec.faults.any();
  for (std::size_t shard : shards) {
    unrun_[shard] = true;
    if (faulted) continue;
    const ShardRange& range = plan.shards[shard];
    for (std::size_t i = range.begin_node; i < range.end_node; ++i) {
      ++PairOf(plan.matrix.nodes[i]).readers;
    }
  }
  for (Pair& pair : pairs_) pair.unread = pair.readers;
}

ForecastMemo::Pair& ForecastMemo::PairOf(const FleetNodeConfig& node) {
  const ScenarioMatrix& matrix = plan_.matrix;
  return pairs_[matrix.trace_lane(node) * matrix.spec.predictors.size() +
                matrix.cells[node.cell].predictor_index];
}

void ForecastMemo::BeginCall(const std::vector<std::size_t>& subset) {
  for (std::size_t shard : subset) {
    SHEP_REQUIRE(shard < unrun_.size() && unrun_[shard],
                 "forecast memo does not serve shard " +
                     std::to_string(shard) + " or has already run it");
  }
  std::vector<bool> lane_read(plan_.lanes.size(), false);
  for (std::size_t shard : subset) {
    unrun_[shard] = false;
    const ShardRange& range = plan_.shards[shard];
    for (std::size_t i = range.begin_node; i < range.end_node; ++i) {
      lane_read[plan_.matrix.trace_lane(plan_.matrix.nodes[i])] = true;
    }
  }
  const std::size_t designs = plan_.matrix.spec.predictors.size();
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t key = 0; key < pairs_.size(); ++key) {
    if (!lane_read[key / designs]) pairs_[key].recording.reset();
  }
}

const RecordedForecast* ForecastMemo::Acquire(const FleetNodeConfig& node,
                                              const SlotSeries& lane) {
  Pair& pair = PairOf(node);
  if (pair.readers < 2) return nullptr;
  Recording* recording = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!pair.recording) pair.recording = std::make_unique<Recording>();
    recording = pair.recording.get();
  }
  std::call_once(recording->recorded, [&] {
    const ScenarioSpec& s = plan_.matrix.spec;
    recording->forecast = RecordForecast(
        s.predictors[plan_.matrix.cells[node.cell].predictor_index],
        s.slots_per_day, lane);
    recordings_.fetch_add(1, std::memory_order_relaxed);
  });
  return &recording->forecast;
}

void ForecastMemo::Release(const FleetNodeConfig& node) {
  Pair& pair = PairOf(node);
  // acq_rel: every sibling's replay happens before the last one frees it.
  if (pair.unread.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    pair.recording.reset();
  }
}

std::size_t ForecastMemo::live_recordings() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t live = 0;
  for (const Pair& pair : pairs_) live += pair.recording != nullptr;
  return live;
}

}  // namespace shep
