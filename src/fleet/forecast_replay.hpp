// forecast_replay.hpp — one predictor pass shared by the storage tiers of
// a weather lane.
//
// Every PredictorKind reads only the lane's boundary samples: nothing it
// computes depends on the node's storage, controller or initial charge.
// So in a healthy run every node of one (lane, predictor design) pair sees
// the same PredictNext() at every slot, whatever its tier.  A ForecastMemo
// records that sequence once (RecordForecast) and RunFleetShards runs each
// such node through the unchanged SimulateNodeKernel on a ForecastReplay,
// which hands the recording back slot by slot.  The node's result is
// bit-identical to a run on the real predictor, name and compute-cost
// channel included (pinned by tests/test_fleet_distributed.cpp).
//
// Faulted nodes never replay: an outage Reset()s the predictor mid-run and
// a dropout changes what it observes, both per node.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "fleet/scenario.hpp"
#include "fleet/shard_plan.hpp"
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

/// The recorded forecasts of one plan's (weather lane, design) pairs,
/// shared by the nodes that read a pair across any number of
/// RunFleetShards calls.  A memo serves a fixed set of the plan's shards,
/// each at most once: RunFleetShards without a memo builds one for its own
/// subset, and shep_fleet_worker holds one for the whole plan across its
/// one-shard jobs, so every tier of a design recorded by an earlier job
/// replays the same recording.
///
/// A pair that two or more nodes of the served shards read is recorded by
/// the first of them to run (concurrent siblings on other pool threads
/// wait for it) and freed when the last of them has run.  A faulted plan
/// shares nothing: each of its nodes runs its own predictor.
///
/// Memory bound: BeginCall drops the recording of every lane the call's
/// shards do not read, so live recordings never exceed (lanes of the
/// current call's shards) x designs, each (days x slots_per_day - 1)
/// doubles.  That holds whatever order the shards come in and whichever
/// siblings another process runs instead (a steal or a reassignment); a
/// pair whose recording was dropped and is read again is recorded again.
/// Within one call, a pair is live from its first node to its last: nodes
/// are cell-major and tiers the innermost cell dimension, so a whole-plan
/// call holds about nodes_per_cell recordings per open (site, design)
/// block, with shard_size x threads nodes in flight.
///
/// One RunFleetShards call at a time may use a memo; `plan` must outlive it.
class ForecastMemo {
 public:
  /// Serves the listed shards of `plan` (valid, distinct indices).
  ForecastMemo(const ShardPlan& plan, const std::vector<std::size_t>& shards);

  std::uint64_t plan_fingerprint() const { return plan_.fingerprint; }

  /// Starts a call over `subset`: throws std::invalid_argument when the
  /// memo does not serve one of its shards or has already run it, then
  /// drops the recordings of every lane the subset does not read.
  void BeginCall(const std::vector<std::size_t>& subset);

  /// The recording `node` replays, made on first use from `lane`, or null
  /// when the node runs its own predictor (its pair has one reader).
  /// Thread-safe.
  const RecordedForecast* Acquire(const FleetNodeConfig& node,
                                  const SlotSeries& lane);
  /// After `node` replayed its recording: frees it once every reader of
  /// the pair has run.  Thread-safe.
  void Release(const FleetNodeConfig& node);

  std::size_t live_recordings() const;  ///< recordings held right now.
  std::size_t recordings() const {      ///< predictor passes recorded.
    return recordings_.load(std::memory_order_relaxed);
  }

 private:
  struct Recording {
    std::once_flag recorded;
    RecordedForecast forecast;
  };
  struct Pair {
    std::size_t readers = 0;                ///< nodes of served shards.
    std::atomic<std::size_t> unread{0};     ///< readers yet to run.
    std::unique_ptr<Recording> recording;   ///< guarded by mutex_.
  };

  Pair& PairOf(const FleetNodeConfig& node);

  const ShardPlan& plan_;
  std::vector<bool> unrun_;  ///< per plan shard: served, not yet run.
  std::vector<Pair> pairs_;  ///< lane x designs + predictor_index.
  mutable std::mutex mutex_;
  std::atomic<std::size_t> recordings_{0};
};

}  // namespace shep
