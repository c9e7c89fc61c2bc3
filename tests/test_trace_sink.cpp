// Streaming telemetry end-to-end: the sink's two load-bearing promises.
//
// 1. OBSERVATIONAL ONLY — a fleet run with tracing on produces a summary
//    BYTE-identical to the same run with tracing off (serial and pooled).
//    Telemetry that can change results is not telemetry.
// 2. COMPLETE AND DETERMINISTIC — every slot the probes observe is
//    persisted, as a full-resolution record or inside a day summary; trace
//    files are the same bytes at any thread count or shard grouping; and a
//    query over the joined per-shard files equals the same query per
//    shard, concatenated — the distributed-merge property, restated for
//    traces.
//
// Plus unit coverage of the selective-persistence policy's triggers, and
// the streaming TraceDistiller checked against the two-pass batch policy
// it replaced, kept here as the reference oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/constants.hpp"
#include "common/rng.hpp"
#include "fleet/runner.hpp"
#include "trace/policy.hpp"
#include "trace/query.hpp"
#include "trace/sink.hpp"

namespace shep {
namespace {

// Small but real: 2 sites × 2 predictors × 2 tiers × 2 replicas, with the
// tight tier provoking violations (trigger windows) and the roomy tier
// staying quiet (day summaries).
ScenarioSpec TracedSpec() {
  ScenarioSpec spec;
  spec.name = "traced";
  spec.sites = {"HSU", "PFCI"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.days = 4;
  PredictorSpec ewma;
  ewma.kind = PredictorKind::kEwma;
  spec.predictors = {wcma, ewma};
  spec.storage_tiers_j = {400.0, 6000.0};
  spec.nodes_per_cell = 2;
  spec.days = 6;
  spec.slots_per_day = 48;
  spec.seed = 909;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 2;
  spec.initial_level_jitter = 0.2;
  return spec;
}

/// Byte-exact fingerprint of a summary: every accumulator's hexfloat
/// serialization plus the rendered CSV.  EXPECT_EQ on this is the
/// "tracing cannot change results" pin.
std::string SummaryBytes(const FleetSummary& summary) {
  std::ostringstream os;
  for (const CellAccumulator& acc : summary.stats) acc.Serialize(os);
  os << summary.ToCsv();
  return os.str();
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string UniqueDir(const std::string& tag) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("shep_trace_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

std::vector<std::string> TraceFilePaths(const ShardPlan& plan,
                                        const std::string& dir) {
  std::vector<std::string> paths;
  for (const ShardRange& shard : plan.shards) {
    paths.push_back(
        (std::filesystem::path(dir) /
         TraceShardFile::FileName(plan.fingerprint, shard.index))
            .string());
  }
  return paths;
}

TraceEvent SlotEvent(std::uint32_t slot, double soc, double predicted_w,
                     double actual_w, bool violated = false,
                     double duty = 0.25) {
  TraceEvent e;
  e.slot = slot;
  e.node = 11;
  e.cell = 2;
  e.soc = soc;
  e.predicted_w = predicted_w;
  e.actual_w = actual_w;
  e.violated = violated;
  e.duty = duty;
  return e;
}

// ---------------------------------------------------------------------------
// Reference oracle: the two-pass batch policy, as the library ran it before
// it streamed.  Pass 1 paints every trigger's window over a whole-node mask
// vector; pass 2 turns masked slots into records and folds the rest into
// day summaries.  `painted`, when given, logs each (index, trigger) paint
// so the equivalence test can prove which cases its streams covered.
// ---------------------------------------------------------------------------

using PaintLog = std::vector<std::pair<std::size_t, std::uint32_t>>;

void PaintWindow(std::vector<std::uint32_t>& masks, std::size_t center,
                 std::uint32_t window, std::uint32_t trigger) {
  const std::size_t lo = center >= window ? center - window : 0;
  const std::size_t hi = std::min(masks.size() - 1, center + window);
  for (std::size_t i = lo; i <= hi; ++i) masks[i] |= trigger;
}

void ReferenceTracePolicy(const std::vector<TraceEvent>& events,
                          std::uint32_t slots_per_day,
                          const TracePolicyConfig& config,
                          std::vector<TraceRecord>& records,
                          std::vector<TraceDayRecord>& day_records,
                          PaintLog* painted = nullptr) {
  if (events.empty()) return;

  std::vector<std::uint32_t> masks(events.size(), 0);
  auto paint = [&](std::size_t i, std::uint32_t trigger) {
    if (painted != nullptr) painted->emplace_back(i, trigger);
    PaintWindow(masks, i, config.window_slots, trigger);
  };
  double prev_soc = 1.0;
  bool prev_outage = false;
  std::uint32_t trailing_violations = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (prev_soc >= config.soc_low_water && e.soc < config.soc_low_water) {
      paint(i, kTraceTriggerSocLowWater);
    }
    prev_soc = e.soc;
    if (e.outage != prev_outage) paint(i, kTraceTriggerOutage);
    prev_outage = e.outage;
    if (!e.outage && e.actual_w > kNightEpsilonW &&
        std::abs(e.predicted_w - e.actual_w) >
            config.divergence_mape * e.actual_w) {
      paint(i, kTraceTriggerDivergence);
    }
    if (e.violated) ++trailing_violations;
    if (i >= config.burst_window_slots &&
        events[i - config.burst_window_slots].violated) {
      --trailing_violations;
    }
    if (trailing_violations >= config.burst_violations) {
      paint(i, kTraceTriggerViolationBurst);
    }
  }

  TraceDayRecord day;
  bool day_open = false;
  auto flush_day = [&] {
    if (day_open && day.slots > 0) day_records.push_back(day);
    day_open = false;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (masks[i] != 0) {
      TraceRecord r;
      r.node = e.node;
      r.cell = e.cell;
      r.slot = e.slot;
      r.trigger_mask = masks[i];
      r.violated = e.violated;
      r.soc = e.soc;
      r.predicted_w = e.predicted_w;
      r.actual_w = e.actual_w;
      r.duty = e.duty;
      records.push_back(r);
      continue;
    }
    const std::uint32_t e_day = e.slot / slots_per_day;
    if (!day_open || day.day != e_day) {
      flush_day();
      day = TraceDayRecord{};
      day.node = e.node;
      day.cell = e.cell;
      day.day = e_day;
      day_open = true;
    }
    ++day.slots;
    if (e.violated) ++day.violations;
    day.min_soc = std::min(day.min_soc, e.soc);
    day.mean_duty += (e.duty - day.mean_duty) / day.slots;
    day.max_abs_error_w =
        std::max(day.max_abs_error_w, std::abs(e.predicted_w - e.actual_w));
  }
  flush_day();
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void ExpectSameRecords(const std::vector<TraceRecord>& got,
                       const std::vector<TraceRecord>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const TraceRecord& g = got[i];
    const TraceRecord& w = want[i];
    EXPECT_EQ(g.node, w.node) << where << " record " << i;
    EXPECT_EQ(g.cell, w.cell) << where << " record " << i;
    EXPECT_EQ(g.slot, w.slot) << where << " record " << i;
    EXPECT_EQ(g.trigger_mask, w.trigger_mask) << where << " record " << i;
    EXPECT_EQ(g.violated, w.violated) << where << " record " << i;
    EXPECT_EQ(Bits(g.soc), Bits(w.soc)) << where << " record " << i;
    EXPECT_EQ(Bits(g.predicted_w), Bits(w.predicted_w))
        << where << " record " << i;
    EXPECT_EQ(Bits(g.actual_w), Bits(w.actual_w)) << where << " record " << i;
    EXPECT_EQ(Bits(g.duty), Bits(w.duty)) << where << " record " << i;
  }
}

void ExpectSameDays(const std::vector<TraceDayRecord>& got,
                    const std::vector<TraceDayRecord>& want,
                    const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const TraceDayRecord& g = got[i];
    const TraceDayRecord& w = want[i];
    EXPECT_EQ(g.node, w.node) << where << " day " << i;
    EXPECT_EQ(g.cell, w.cell) << where << " day " << i;
    EXPECT_EQ(g.day, w.day) << where << " day " << i;
    EXPECT_EQ(g.slots, w.slots) << where << " day " << i;
    EXPECT_EQ(g.violations, w.violations) << where << " day " << i;
    EXPECT_EQ(Bits(g.min_soc), Bits(w.min_soc)) << where << " day " << i;
    EXPECT_EQ(Bits(g.mean_duty), Bits(w.mean_duty)) << where << " day " << i;
    EXPECT_EQ(Bits(g.max_abs_error_w), Bits(w.max_abs_error_w))
        << where << " day " << i;
  }
}

/// One node's random slot stream: SoC hovering around the low-water mark,
/// night slots and large misses, violation runs of random density, outage
/// runs, and slot numbers with occasional gaps.
std::vector<TraceEvent> RandomStream(Rng& rng, std::size_t length,
                                     std::uint64_t node, std::uint64_t cell) {
  std::vector<TraceEvent> events;
  const double violation_rate = rng.Uniform(0.0, 0.6);
  const double outage_flip_rate = rng.Uniform(0.0, 0.2);
  std::uint32_t slot = static_cast<std::uint32_t>(rng.NextBelow(5));
  bool outage = false;
  for (std::size_t i = 0; i < length; ++i) {
    TraceEvent e;
    e.node = node;
    e.cell = cell;
    e.slot = slot;
    slot += 1 + (rng.NextBool(0.15) ? static_cast<std::uint32_t>(
                                          rng.NextBelow(4))
                                    : 0);
    if (rng.NextBool(outage_flip_rate)) outage = !outage;
    e.outage = outage;
    e.violated = rng.NextBool(violation_rate);
    // 0.15 exactly is the default low-water mark: the >= / < edge.
    e.soc = rng.NextBool(0.05) ? 0.15 : rng.Uniform(0.0, 0.45);
    e.actual_w = rng.NextBool(0.25)   ? 0.0
                 : rng.NextBool(0.05) ? kNightEpsilonW
                                      : rng.Uniform(0.0, 2.0);
    e.predicted_w = outage ? 0.0 : e.actual_w * rng.Uniform(0.0, 2.2);
    e.duty = rng.Uniform(0.0, 1.0);
    events.push_back(e);
  }
  return events;
}

// ---------------------------------------------------------------------------
// Policy units.
// ---------------------------------------------------------------------------

TEST(TracePolicy, SocLowWaterCrossingKeepsAWindow) {
  TracePolicyConfig config;
  config.window_slots = 2;
  config.soc_low_water = 0.15;
  std::vector<TraceEvent> events;
  for (std::uint32_t g = 0; g < 12; ++g) {
    // Dips below the low-water mark at slot 6 only.
    events.push_back(SlotEvent(g, g == 6 ? 0.10 : 0.5, 1.0, 1.0));
  }
  std::vector<TraceRecord> records;
  std::vector<TraceDayRecord> days;
  ApplyTracePolicy(events, 6, config, records, days);

  ASSERT_EQ(records.size(), 5u);  // slots 4..8.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].slot, 4 + i);
    EXPECT_EQ(records[i].trigger_mask, kTraceTriggerSocLowWater);
  }
  // The other 7 slots summarize into both days without gaps.
  ASSERT_EQ(days.size(), 2u);
  EXPECT_EQ(days[0].day, 0u);
  EXPECT_EQ(days[0].slots, 4u);  // slots 0..3.
  EXPECT_EQ(days[1].day, 1u);
  EXPECT_EQ(days[1].slots, 3u);  // slots 9..11.
  EXPECT_EQ(days[0].slots + days[1].slots + records.size(), events.size());
}

TEST(TracePolicy, DivergenceSpikeTriggersButNightDoesNot) {
  TracePolicyConfig config;
  config.window_slots = 1;
  config.divergence_mape = 0.75;
  std::vector<TraceEvent> events;
  for (std::uint32_t g = 0; g < 10; ++g) {
    double predicted = 1.0, actual = 1.0;
    if (g == 4) predicted = 3.0;          // 200 % error in daylight: spike.
    if (g == 8) { predicted = 5.0; actual = 0.0; }  // night: no reference.
    events.push_back(SlotEvent(g, 0.5, predicted, actual));
  }
  std::vector<TraceRecord> records;
  std::vector<TraceDayRecord> days;
  ApplyTracePolicy(events, 10, config, records, days);

  ASSERT_EQ(records.size(), 3u);  // slots 3..5 only; slot 8 stayed coarse.
  for (const TraceRecord& r : records) {
    EXPECT_EQ(r.trigger_mask, kTraceTriggerDivergence);
    EXPECT_GE(r.slot, 3u);
    EXPECT_LE(r.slot, 5u);
  }
  ASSERT_EQ(days.size(), 1u);
  EXPECT_EQ(days[0].slots, 7u);
  // The night slot's 5 W miss is still visible in the coarse record.
  EXPECT_EQ(days[0].max_abs_error_w, 5.0);
}

TEST(TracePolicy, ViolationBurstTriggersOnPileUpOnly) {
  TracePolicyConfig config;
  config.window_slots = 1;
  config.burst_violations = 3;
  config.burst_window_slots = 4;
  std::vector<TraceEvent> events;
  for (std::uint32_t g = 0; g < 20; ++g) {
    // One isolated violation at 2; a 3-violation pile-up at 10..12.
    const bool violated = g == 2 || g == 10 || g == 11 || g == 12;
    events.push_back(SlotEvent(g, 0.5, 1.0, 1.0, violated));
  }
  std::vector<TraceRecord> records;
  std::vector<TraceDayRecord> days;
  ApplyTracePolicy(events, 20, config, records, days);

  // The trailing count reaches 3 at slot 12 and holds through 13; those
  // two trigger slots ± 1 make the persisted window exactly 11..14.
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].slot, 11 + i);
    EXPECT_EQ(records[i].trigger_mask, kTraceTriggerViolationBurst);
  }
  // The isolated violations (slot 2, and slot 10 just outside the window)
  // were NOT kept at full resolution but are counted in the day summary.
  ASSERT_EQ(days.size(), 1u);
  EXPECT_EQ(days[0].violations, 2u);
  EXPECT_EQ(days[0].slots + records.size(), events.size());
}

TEST(TracePolicy, DaySummaryAggregatesExactly) {
  TracePolicyConfig config;  // defaults: nothing triggers in calm data.
  std::vector<TraceEvent> events;
  events.push_back(SlotEvent(0, 0.9, 1.0, 1.2, false, 0.2));
  events.push_back(SlotEvent(1, 0.8, 1.0, 1.5, true, 0.4));
  events.push_back(SlotEvent(2, 0.7, 1.0, 1.0, false, 0.6));
  std::vector<TraceRecord> records;
  std::vector<TraceDayRecord> days;
  ApplyTracePolicy(events, 48, config, records, days);
  EXPECT_TRUE(records.empty());
  ASSERT_EQ(days.size(), 1u);
  EXPECT_EQ(days[0].node, 11u);
  EXPECT_EQ(days[0].cell, 2u);
  EXPECT_EQ(days[0].slots, 3u);
  EXPECT_EQ(days[0].violations, 1u);
  EXPECT_DOUBLE_EQ(days[0].min_soc, 0.7);
  EXPECT_DOUBLE_EQ(days[0].mean_duty, 0.4);
  EXPECT_DOUBLE_EQ(days[0].max_abs_error_w, 0.5);
}

TEST(TraceDistiller, MatchesTheTwoPassReferenceOnSeededStreams) {
  // Which edge cases the streams reached, summed over every seed.
  std::size_t first_window = 0, last_window = 0, overlapping = 0,
              across_days = 0, outage_entry = 0, outage_exit = 0,
              zero_window = 0, window_past_stream = 0,
              burst_past_window = 0, burst_past_stream = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    Rng rng(seed);
    TracePolicyConfig config;
    const std::uint32_t windows[] = {0, 1, 2, 6, 40};
    config.window_slots = windows[rng.NextBelow(5)];
    config.burst_window_slots = static_cast<std::uint32_t>(rng.NextBelow(50));
    config.burst_violations = static_cast<std::uint32_t>(1 + rng.NextBelow(4));
    const std::uint32_t slots_per_day =
        static_cast<std::uint32_t>(1 + rng.NextBelow(8));

    // One distiller serves every node of the seed, as one serves every
    // node of a worker's shards.
    TraceDistiller distiller(config);
    std::vector<TraceRecord> records, want_records;
    std::vector<TraceDayRecord> days, want_days;
    distiller.Open(slots_per_day, records, days);
    const std::size_t nodes = 1 + rng.NextBelow(3);
    for (std::size_t n = 0; n < nodes; ++n) {
      const std::size_t length = 1 + rng.NextBelow(60);
      const std::vector<TraceEvent> events =
          RandomStream(rng, length, 100 * seed + n, seed % 7);
      PaintLog painted;
      std::vector<TraceRecord> node_records;
      std::vector<TraceDayRecord> node_days;
      ReferenceTracePolicy(events, slots_per_day, config, node_records,
                           node_days, &painted);
      want_records.insert(want_records.end(), node_records.begin(),
                          node_records.end());
      want_days.insert(want_days.end(), node_days.begin(), node_days.end());
      distiller.BeginNode(events.front().node, events.front().cell);
      for (const TraceEvent& e : events) {
        distiller.Push(e.slot, e.violated, e.soc, e.predicted_w, e.actual_w,
                       e.duty, e.outage);
      }
      distiller.EndNode();
      EXPECT_EQ(distiller.node_slots(), length);

      // The batch wrapper is the same distiller.
      std::vector<TraceRecord> batch_records;
      std::vector<TraceDayRecord> batch_days;
      ApplyTracePolicy(events, slots_per_day, config, batch_records,
                       batch_days);
      const std::string where = "seed " + std::to_string(seed) + " node " +
                                std::to_string(n);
      ExpectSameRecords(batch_records, node_records, where + " (batch)");
      ExpectSameDays(batch_days, node_days, where + " (batch)");

      const std::uint32_t w = config.window_slots;
      for (const auto& [i, trigger] : painted) {
        if (w > 0 && i < w) ++first_window;
        if (w > 0 && i + w >= length) ++last_window;
        const std::size_t lo = i >= w ? i - w : 0;
        const std::size_t hi = std::min(length - 1, i + std::size_t{w});
        const std::uint32_t lo_day = events[lo].slot / slots_per_day;
        if (lo_day != events[hi].slot / slots_per_day) ++across_days;
        if (trigger == kTraceTriggerOutage) {
          ++(events[i].outage ? outage_entry : outage_exit);
        }
        if (w == 0) ++zero_window;
        if (w > length) ++window_past_stream;
        if (trigger == kTraceTriggerViolationBurst) {
          if (config.burst_window_slots > w) ++burst_past_window;
          if (config.burst_window_slots > length) ++burst_past_stream;
        }
      }
    }
    const std::string where = "seed " + std::to_string(seed);
    ExpectSameRecords(records, want_records, where);
    ExpectSameDays(days, want_days, where);
    for (const TraceRecord& r : want_records) {
      if (std::popcount(r.trigger_mask) > 1) ++overlapping;
    }
  }
  EXPECT_GT(first_window, 0u);
  EXPECT_GT(last_window, 0u);
  EXPECT_GT(overlapping, 0u);
  EXPECT_GT(across_days, 0u);
  EXPECT_GT(outage_entry, 0u);
  EXPECT_GT(outage_exit, 0u);
  EXPECT_GT(zero_window, 0u);
  EXPECT_GT(window_past_stream, 0u);
  EXPECT_GT(burst_past_window, 0u);
  EXPECT_GT(burst_past_stream, 0u);
}

TEST(TraceDistiller, RejectsAnOutOfOrderPush) {
  TraceDistiller distiller;
  std::vector<TraceRecord> records;
  std::vector<TraceDayRecord> days;
  distiller.Open(48, records, days);
  distiller.BeginNode(0, 0);
  distiller.Push(5, false, 0.5, 1.0, 1.0, 0.5, false);
  EXPECT_THROW(distiller.Push(5, false, 0.5, 1.0, 1.0, 0.5, false),
               std::invalid_argument);
  EXPECT_THROW(distiller.Push(4, false, 0.5, 1.0, 1.0, 0.5, false),
               std::invalid_argument);
  distiller.Push(6, false, 0.5, 1.0, 1.0, 0.5, false);
  distiller.EndNode();
  EXPECT_EQ(distiller.node_slots(), 2u);
  // A new node starts its own slot sequence.
  distiller.BeginNode(1, 0);
  distiller.Push(0, false, 0.5, 1.0, 1.0, 0.5, false);
  distiller.EndNode();
  ASSERT_EQ(days.size(), 2u);
  EXPECT_EQ(days[0].slots, 2u);
  EXPECT_EQ(days[1].node, 1u);
}

// ---------------------------------------------------------------------------
// Fleet integration.
// ---------------------------------------------------------------------------

TEST(TraceSinkFleet, SummaryByteIdenticalWithTracingOnAndOff) {
  const ScenarioSpec spec = TracedSpec();
  const std::string untraced = SummaryBytes(RunFleet(spec));

  // Serial traced run.
  {
    TraceSinkOptions options;
    options.directory = UniqueDir("identity_serial");
    TraceSink sink(options);
    FleetRunOptions run;
    run.trace_sink = &sink;
    EXPECT_EQ(SummaryBytes(RunFleet(spec, run)), untraced);
  }
  // Pooled traced run.
  {
    ThreadPool pool(4);
    TraceSinkOptions options;
    options.directory = UniqueDir("identity_pool");
    TraceSink sink(options);
    FleetRunOptions run;
    run.pool = &pool;
    run.trace_sink = &sink;
    EXPECT_EQ(SummaryBytes(RunFleet(spec, run)), untraced);
  }
}

TEST(TraceSinkFleet, DefaultOptionsPersistEverySlot) {
  // Long enough that one 8-node shard observes more events than the
  // default TraceSinkOptions::ring_capacity (16 Ki), which has no effect.
  ScenarioSpec spec = TracedSpec();
  spec.days = 45;
  // The kernel simulates series.size() - 1 = days × slots_per_day − 1
  // slots per node, warm-up included, and offers every one to the probe.
  const std::uint64_t slots_per_node =
      static_cast<std::uint64_t>(spec.days) * spec.slots_per_day - 1;
  const ShardPlan plan = BuildShardPlan(spec, FleetRunOptions{}.shard_size);
  std::size_t max_shard_nodes = 0;
  for (const ShardRange& range : plan.shards) {
    max_shard_nodes = std::max(max_shard_nodes, range.node_count());
  }
  ASSERT_GT(max_shard_nodes * slots_per_node,
            TraceSinkOptions{}.ring_capacity);

  // Serially, and on a pool where each batch worker traces the shards it
  // runs through its own shard writer.
  ThreadPool pool(4);
  ThreadPool* const pools[] = {nullptr, &pool};
  for (ThreadPool* const run_pool : pools) {
    SCOPED_TRACE(run_pool == nullptr ? "serial" : "pooled");
    TraceSinkOptions options;
    options.directory = UniqueDir(run_pool == nullptr ? "complete_serial"
                                                      : "complete_pool");
    TraceSink sink(options);
    FleetRunOptions run;
    run.pool = run_pool;
    run.trace_sink = &sink;
    FleetRunStats stats;
    RunFleet(spec, run, &stats);

    EXPECT_EQ(stats.trace_dropped, 0u);
    EXPECT_EQ(stats.trace_events, spec.node_count() * slots_per_node);
    EXPECT_EQ(stats.trace_shard_files, plan.shards.size());

    // Persistence is complete: every observed slot is either a
    // full-resolution record or summarized in exactly one day record.
    const auto files =
        LoadTraceFiles(TraceFilePaths(plan, options.directory));
    std::uint64_t slot_records = 0, summarized = 0;
    for (const TraceShardFile& file : files) {
      EXPECT_EQ(file.dropped_events, 0u);
      slot_records += file.records.size();
      for (const TraceDayRecord& day : file.day_records) {
        summarized += day.slots;
      }
    }
    EXPECT_EQ(slot_records, stats.trace_slot_records);
    EXPECT_EQ(slot_records + summarized, stats.trace_events);
  }
}

TEST(TraceSinkFleet, TraceFilesAreSchedulingInvariant) {
  const ScenarioSpec spec = TracedSpec();
  const ShardPlan plan = BuildShardPlan(spec, FleetRunOptions{}.shard_size);
  auto traced_options = [](const std::string& dir) {
    TraceSinkOptions options;
    options.directory = dir;
    return options;
  };
  const std::string serial_dir = UniqueDir("sched_serial");
  const std::string pooled_dir = UniqueDir("sched_pool");
  const std::string sharded_dir = UniqueDir("sched_sharded");

  {
    TraceSink sink(traced_options(serial_dir));
    FleetRunOptions run;
    run.trace_sink = &sink;
    RunFleet(spec, run);
  }
  {
    ThreadPool pool(4);
    TraceSink sink(traced_options(pooled_dir));
    FleetRunOptions run;
    run.pool = &pool;
    run.trace_sink = &sink;
    RunFleet(spec, run);
  }
  {
    // One RunFleetShards call per shard: the shape of a coordinated
    // worker, which serves one shard per frame.
    TraceSink sink(traced_options(sharded_dir));
    FleetRunOptions run;
    run.trace_sink = &sink;
    for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
      (void)RunFleetShards(plan, {shard}, run);
    }
  }

  const auto serial_paths = TraceFilePaths(plan, serial_dir);
  const auto pooled_paths = TraceFilePaths(plan, pooled_dir);
  const auto sharded_paths = TraceFilePaths(plan, sharded_dir);
  for (std::size_t i = 0; i < serial_paths.size(); ++i) {
    const std::string serial = FileBytes(serial_paths[i]);
    EXPECT_FALSE(serial.empty()) << "shard " << i;
    EXPECT_EQ(serial, FileBytes(pooled_paths[i])) << "shard " << i;
    EXPECT_EQ(serial, FileBytes(sharded_paths[i])) << "shard " << i;
  }
}

TEST(TraceSinkFleet, DistributedPartialsQueryIdenticallyPerShardAndJoined) {
  const ScenarioSpec spec = TracedSpec();
  const ShardPlan plan = BuildShardPlan(spec, 3);

  // Three "workers" each run a slice of the plan against one shared sink
  // directory — the deployment shape where every process writes its own
  // shard files and an operator joins them afterwards.
  TraceSinkOptions options;
  options.directory = UniqueDir("distributed");
  TraceSink sink(options);
  FleetRunOptions run;
  run.trace_sink = &sink;

  std::vector<std::size_t> all(plan.shards.size());
  std::iota(all.begin(), all.end(), 0);
  std::vector<FleetPartial> partials;
  for (std::size_t worker = 0; worker < 3; ++worker) {
    std::vector<std::size_t> subset;
    for (std::size_t s = worker; s < all.size(); s += 3) subset.push_back(s);
    partials.push_back(
        FleetPartial::Parse(RunFleetShards(plan, subset, run).Serialize()));
  }
  // The traced partials still merge to the untraced monolithic summary.
  const FleetSummary merged = MergeFleetPartials(plan, partials);
  FleetRunOptions untraced;
  untraced.shard_size = 3;
  EXPECT_EQ(SummaryBytes(merged), SummaryBytes(RunFleet(spec, untraced)));

  // Every shard of the plan produced a parseable file with the plan's
  // fingerprint.
  const auto paths = TraceFilePaths(plan, options.directory);
  const auto files = LoadTraceFiles(paths);
  ASSERT_EQ(files.size(), plan.shards.size());
  for (const TraceShardFile& file : files) {
    EXPECT_EQ(file.fingerprint, plan.fingerprint);
  }

  // Per-shard versus joined: same query, same rows, whether each file is
  // queried alone (results concatenated in shard order) or all at once.
  TraceQuery query;  // everything.
  TraceQuery filtered;
  filtered.site = "HSU";
  filtered.trigger_mask = kTraceTriggerViolationBurst | kTraceTriggerSocLowWater;
  for (const TraceQuery& q : {query, filtered}) {
    const TraceQueryResult joined = RunTraceQuery(files, q);
    TraceQueryResult concatenated;
    for (const TraceShardFile& file : files) {
      const TraceQueryResult one = RunTraceQuery({file}, q);
      concatenated.slots.insert(concatenated.slots.end(), one.slots.begin(),
                                one.slots.end());
      concatenated.days.insert(concatenated.days.end(), one.days.begin(),
                               one.days.end());
    }
    EXPECT_EQ(TraceSlotsTable(joined).ToCsv(),
              TraceSlotsTable(concatenated).ToCsv());
    EXPECT_EQ(TraceDaysTable(joined).ToCsv(),
              TraceDaysTable(concatenated).ToCsv());
  }
  // The unfiltered query saw actual telemetry, not empty tables.
  EXPECT_FALSE(RunTraceQuery(files, query).days.empty());
}

TEST(TraceSinkFleet, TraceFilesMatchPinnedDigest) {
  // Pins the trace bytes across commits: a change to the policy, the
  // record text or the file layout moves this digest.  Outages make the
  // outage-edge trigger fire beside the other three.
  ScenarioSpec spec = TracedSpec();
  spec.faults.outage_rate_per_day = 0.5;
  spec.faults.outage_mean_slots = 4.0;
  spec.faults.dropout_rate_per_day = 0.5;
  spec.faults.dropout_mean_slots = 3.0;
  const ShardPlan plan = BuildShardPlan(spec, FleetRunOptions{}.shard_size);
  TraceSinkOptions options;
  options.directory = UniqueDir("pinned");
  {
    TraceSink sink(options);
    FleetRunOptions run;
    run.trace_sink = &sink;
    RunFleet(spec, run);
  }

  std::uint32_t fired = 0;
  for (const TraceShardFile& file :
       LoadTraceFiles(TraceFilePaths(plan, options.directory))) {
    for (const TraceRecord& r : file.records) fired |= r.trigger_mask;
  }
  EXPECT_EQ(fired, kTraceTriggerViolationBurst | kTraceTriggerSocLowWater |
                       kTraceTriggerDivergence | kTraceTriggerOutage);

  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a 64 offset basis.
  for (const std::string& path : TraceFilePaths(plan, options.directory)) {
    for (unsigned char c : FileBytes(path)) {
      digest ^= c;
      digest *= 1099511628211ull;  // FNV-1a 64 prime.
    }
  }
  EXPECT_EQ(digest, 0x7df891eb4d7f23c4ull) << std::hex << "digest 0x" << digest;
}

TEST(TraceSinkFleet, RejectsJoiningForeignRuns) {
  const ScenarioSpec spec = TracedSpec();
  ScenarioSpec other = spec;
  other.seed = 910;  // different plan fingerprint.
  const std::string dir_a = UniqueDir("foreign_a");
  const std::string dir_b = UniqueDir("foreign_b");
  auto run_traced = [](const ScenarioSpec& s, const std::string& dir) {
    TraceSinkOptions options;
    options.directory = dir;
    TraceSink sink(options);
    FleetRunOptions run;
    run.trace_sink = &sink;
    RunFleet(s, run);
  };
  run_traced(spec, dir_a);
  run_traced(other, dir_b);
  const ShardPlan plan_a = BuildShardPlan(spec, FleetRunOptions{}.shard_size);
  const ShardPlan plan_b = BuildShardPlan(other, FleetRunOptions{}.shard_size);
  std::vector<std::string> mixed = {
      TraceFilePaths(plan_a, dir_a).front(),
      TraceFilePaths(plan_b, dir_b).front(),
  };
  EXPECT_THROW(LoadTraceFiles(mixed), std::exception);
}

}  // namespace
}  // namespace shep
