// The hot-path allocation contract, checked at runtime.
//
// The paper's predictor runs once per slot on an energy-harvesting MCU
// whose per-slot step never touches a heap.  The simulator keeps the same
// contract: once a predictor is constructed, a kernel run over a longer
// series must not allocate more than a run over a shorter one — per-node
// constants (the result's predictor name) are fine, anything per slot,
// per day, or per Reset() is not, and a traced run's distillation obeys
// the same rule, as does a run on a replayed forecast
// (fleet/forecast_replay.hpp).  Likewise trace synthesis with a warm
// scratch and a warm clear-sky memo allocates exactly the trace it
// returns, and lane synthesis exactly the slot series it returns,
// whatever their length.
//
// Global operator new is replaced by a counting one.  The counter is
// thread-local, so only allocations made by the measuring thread count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "fleet/faults.hpp"
#include "fleet/forecast_replay.hpp"
#include "fleet/scenario.hpp"
#include "mgmt/node_sim_kernel.hpp"
#include "solar/sites.hpp"
#include "solar/synth.hpp"
#include "timeseries/slotting.hpp"
#include "trace/sink.hpp"

namespace {

thread_local std::size_t t_allocations = 0;

void* CountedAlloc(std::size_t size, std::size_t align) {
  ++t_allocations;
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace shep {
namespace {

constexpr int kSlotsPerDay = 48;

const PredictorKind kKinds[] = {
    PredictorKind::kWcma,        PredictorKind::kWcmaFixed,
    PredictorKind::kWcmaVm,      PredictorKind::kEwma,
    PredictorKind::kAr,          PredictorKind::kAdaptiveWcma,
    PredictorKind::kPersistence, PredictorKind::kPreviousDay};

enum class Mode { kHealthy, kFaulted, kTraced, kReplayed, kReplayedTraced };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kHealthy: return "healthy";
    case Mode::kFaulted: return "faulted";
    case Mode::kTraced: return "traced";
    case Mode::kReplayed: return "replayed";
    case Mode::kReplayedTraced: return "replayed traced";
  }
  return "?";
}

SlotSeries Series(std::size_t days) {
  SynthOptions options;
  options.days = days;
  return SlotSeries(SynthesizeTrace(SiteByCode("HSU"), options),
                    kSlotsPerDay);
}

NodeSimConfig Config() {
  NodeSimConfig config;
  config.duty.slot_seconds = 1800.0;
  config.duty.active_power_w = 0.40;
  config.storage.capacity_j = 4000.0;
  config.warmup_days = 10;
  return config;
}

PredictorSpec Spec(PredictorKind kind) {
  PredictorSpec spec;
  spec.kind = kind;
  spec.wcma.days = 10;
  spec.wcma.slots_k = 3;
  return spec;
}

/// Outages every few days (each recovery Reset()s the predictor) plus
/// sensor dropouts.
FaultSpec Outages() {
  FaultSpec faults;
  faults.outage_rate_per_day = 0.3;
  faults.outage_mean_slots = 6.0;
  faults.dropout_rate_per_day = 1.0;
  faults.dropout_mean_slots = 2.0;
  faults.recovery_window_slots = 48;
  return faults;
}

struct KernelRun {
  std::size_t allocations = 0;
  NodeSimResult result;
};

/// One kernel run of a freshly built `kind` over `series`; only the run
/// itself is counted, never the construction of its inputs.  A traced run
/// is one whole shard of one node through a real ShardWriter, so the
/// node's distillation is counted too.  Like a pool worker's writer in
/// steady state, its file vectors are warm: an identical node already ran
/// into them, and BeginShard cleared them.  Nothing is reserved.  A
/// replayed run drives the kernel with a ForecastReplay of a recording
/// made beforehand, as RunFleetShards does for a shared forecast.
KernelRun RunKernel(PredictorKind kind, Mode mode, const SlotSeries& series) {
  const PredictorSpec spec = Spec(kind);
  const auto predictor = spec.Make(kSlotsPerDay);
  Predictor& p = *predictor;
  const NodeSimConfig config = Config();
  const RecordedForecast forecast =
      RecordForecast(spec, kSlotsPerDay, series);
  FaultSchedule schedule;
  BuildFaultSchedule(Outages(), 7, series.days(), kSlotsPerDay, schedule);
  TraceSink sink;  // no directory: EndShard writes no file.
  TraceRunContext context;
  context.slots_per_day = kSlotsPerDay;
  context.days = static_cast<std::uint32_t>(series.days());
  context.cells.resize(1);
  sink.BeginRun(context);
  TraceSink::ShardWriter writer;
  auto traced_shard = [&](auto& traced) {
    writer.BeginShard(sink, 0);
    const NodeTraceProbe probe = writer.Probe(0, 0);
    NodeSimResult result = SimulateNodeKernel(traced, series, config, probe);
    writer.EndNode();
    writer.EndShard();
    return result;
  };
  if (mode == Mode::kTraced) (void)traced_shard(*spec.Make(kSlotsPerDay));
  if (mode == Mode::kReplayedTraced) {
    (void)WithReplay(forecast, traced_shard);
  }

  KernelRun run;
  const std::size_t before = t_allocations;
  switch (mode) {
    case Mode::kHealthy:
      run.result = SimulateNodeKernel(p, series, config);
      break;
    case Mode::kFaulted:
      run.result = SimulateNodeKernel(p, series, config, NoSlotProbe{},
                                      FaultModel(schedule));
      break;
    case Mode::kTraced:
      run.result = traced_shard(p);
      break;
    case Mode::kReplayed:
      run.result = WithReplay(forecast, [&](auto& replay) {
        return SimulateNodeKernel(replay, series, config);
      });
      break;
    case Mode::kReplayedTraced:
      run.result = WithReplay(forecast, traced_shard);
      break;
  }
  run.allocations = t_allocations - before;
  return run;
}

TEST(HotPathAlloc, KernelRunAllocationsDoNotGrowWithTheSeries) {
  const SlotSeries short_series = Series(30);
  const SlotSeries long_series = Series(120);
  for (PredictorKind kind : kKinds) {
    for (Mode mode : {Mode::kHealthy, Mode::kFaulted, Mode::kTraced,
                      Mode::kReplayed, Mode::kReplayedTraced}) {
      const KernelRun short_run = RunKernel(kind, mode, short_series);
      const KernelRun long_run = RunKernel(kind, mode, long_series);
      EXPECT_EQ(short_run.allocations, long_run.allocations)
          << PredictorKindName(kind) << " " << ModeName(mode);
      if (mode == Mode::kFaulted) {
        // The longer run must recover more often, or Reset() was never
        // really exercised.
        EXPECT_GT(long_run.result.recoveries, short_run.result.recoveries)
            << PredictorKindName(kind);
      }
    }
  }
}

TEST(HotPathAlloc, WarmSynthesisAllocatesOnlyTheReturnedTrace) {
  const SiteProfile& site = SiteByCode("HSU");
  SynthScratch scratch;
  SynthOptions options;
  options.days = 365;
  // Warm the scratch to its largest size and the clear-sky memo to every
  // day of the year.
  (void)SynthesizeTrace(site, options, scratch);
  for (std::size_t days : {30u, 120u, 365u}) {
    options.days = days;
    const std::size_t before = t_allocations;
    const PowerTrace trace = SynthesizeTrace(site, options, scratch);
    EXPECT_EQ(t_allocations - before, 1u) << days << " days";
  }
}

// The fleet's lane path never holds a whole trace: a warm lane allocates
// the series' boundary and mean vectors and nothing else, at any length
// and at either recording resolution.
TEST(HotPathAlloc, WarmLaneSynthesisAllocatesOnlyTheSeriesStorage) {
  for (const char* code : {"HSU", "SPMD"}) {
    const SiteProfile& site = SiteByCode(code);
    SynthScratch scratch;
    SynthOptions options;
    options.days = 365;
    (void)SynthesizeSlotSeries(site, options, 48, scratch);
    for (std::size_t days : {30u, 120u, 365u}) {
      options.days = days;
      const std::size_t before = t_allocations;
      const SlotSeries series = SynthesizeSlotSeries(site, options, 48, scratch);
      EXPECT_EQ(t_allocations - before, 2u) << code << " " << days << " days";
      EXPECT_EQ(series.days(), days);
    }
  }
}

}  // namespace
}  // namespace shep
