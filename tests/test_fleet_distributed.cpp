// Tests for the distributed fleet pipeline: shard plans, serialized
// partials, the plan-order merge, the trace cache, and the forecasts a
// healthy run shares between the storage tiers of a weather lane, within
// one call and, through a ForecastMemo, across calls.  The acceptance
// pin lives here — a scenario executed as several separate RunFleetShards
// partial runs, each serialized to text and parsed back, must merge into
// a FleetSummary bit-identical (table + CSV + integer totals) to the
// single-process RunFleet at any thread count.
#include "fleet/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/serdes.hpp"
#include "common/threadpool.hpp"
#include "fleet/forecast_replay.hpp"
#include "fleet/partial.hpp"
#include "fleet/shard_plan.hpp"
#include "fleet/trace_cache.hpp"
#include "solar/clearsky.hpp"
#include "trace/sink.hpp"
#include "trace/trace_file.hpp"

namespace shep {
namespace {

ScenarioSpec DistributedSpec() {
  ScenarioSpec spec;
  spec.name = "distributed";
  spec.sites = {"HSU", "PFCI"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.days = 10;
  PredictorSpec fixed = wcma;  // a costed backend, so the cycle moments
  fixed.kind = PredictorKind::kWcmaFixed;  // and histograms are exercised.
  PredictorSpec persistence;
  persistence.kind = PredictorKind::kPersistence;
  spec.predictors = {wcma, fixed, persistence};
  spec.storage_tiers_j = {1500.0, 6000.0};
  spec.nodes_per_cell = 3;
  spec.days = 30;
  spec.slots_per_day = 48;
  spec.seed = 77;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 20;
  spec.initial_level_jitter = 0.2;
  return spec;
}

void ExpectMomentsBitIdentical(const StreamingMoments& a,
                               const StreamingMoments& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.m2, b.m2);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
}

void ExpectCellBitIdentical(const CellAccumulator& a,
                            const CellAccumulator& b) {
  ExpectMomentsBitIdentical(a.violation_rate, b.violation_rate);
  ExpectMomentsBitIdentical(a.mean_duty, b.mean_duty);
  ExpectMomentsBitIdentical(a.wasted_fraction, b.wasted_fraction);
  ExpectMomentsBitIdentical(a.min_soc, b.min_soc);
  ExpectMomentsBitIdentical(a.mape, b.mape);
  ExpectMomentsBitIdentical(a.cycles_per_wakeup, b.cycles_per_wakeup);
  ExpectMomentsBitIdentical(a.ops_per_wakeup, b.ops_per_wakeup);
  EXPECT_EQ(a.violation_hist.bins(), b.violation_hist.bins());
  EXPECT_EQ(a.violation_hist.total(), b.violation_hist.total());
  EXPECT_EQ(a.violation_hist.nan_count(), b.violation_hist.nan_count());
  EXPECT_EQ(a.cycles_hist.bins(), b.cycles_hist.bins());
  EXPECT_EQ(a.cycles_hist.nan_count(), b.cycles_hist.nan_count());
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.scored_slots, b.scored_slots);
}

void ExpectSummaryBitIdentical(const FleetSummary& a, const FleetSummary& b) {
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    ExpectCellBitIdentical(a.stats[i], b.stats[i]);
  }
  EXPECT_EQ(a.ToTable(), b.ToTable());
  EXPECT_EQ(a.ToCsv(), b.ToCsv());
}

/// Runs each shard group as its own RunFleetShards call, pushes every
/// partial through Serialize → Parse (the process boundary), and merges.
FleetSummary RunDistributed(const ShardPlan& plan,
                            const std::vector<std::vector<std::size_t>>& groups,
                            const FleetRunOptions& options = {}) {
  std::vector<FleetPartial> partials;
  for (const auto& group : groups) {
    const FleetPartial partial = RunFleetShards(plan, group, options);
    const std::string wire = partial.Serialize();
    partials.push_back(FleetPartial::Parse(wire));
  }
  return MergeFleetPartials(plan, partials);
}

/// Round-robins the plan's shards into n groups.
std::vector<std::vector<std::size_t>> RoundRobinGroups(const ShardPlan& plan,
                                                       std::size_t n) {
  std::vector<std::vector<std::size_t>> groups(n);
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    groups[i % n].push_back(i);
  }
  return groups;
}

TEST(ShardPlan, IsDeterministicAndCoversEveryNode) {
  const ScenarioSpec spec = DistributedSpec();
  const ShardPlan a = BuildShardPlan(spec, 5);
  const ShardPlan b = BuildShardPlan(spec, 5);
  EXPECT_EQ(a.fingerprint, b.fingerprint);

  // Ranges tile [0, node_count) exactly.
  std::size_t next = 0;
  for (const ShardRange& range : a.shards) {
    EXPECT_EQ(range.begin_node, next);
    EXPECT_GT(range.end_node, range.begin_node);
    next = range.end_node;
  }
  EXPECT_EQ(next, a.matrix.nodes.size());

  // Lane table matches the matrix's (site, replica) keying.
  ASSERT_EQ(a.lanes.size(), a.matrix.trace_lane_count());
  for (const FleetNodeConfig& node : a.matrix.nodes) {
    const TraceLanePlan& lane = a.lanes[a.matrix.trace_lane(node)];
    EXPECT_EQ(lane.trace_seed, node.trace_seed);
    EXPECT_EQ(lane.site_code, a.matrix.cells[node.cell].site_code);
  }

  // A different shard size is a different plan identity.
  EXPECT_NE(BuildShardPlan(spec, 4).fingerprint, a.fingerprint);
  ScenarioSpec reseeded = spec;
  reseeded.seed = spec.seed + 1;
  EXPECT_NE(BuildShardPlan(reseeded, 5).fingerprint, a.fingerprint);
}

// The fingerprint must cover every field of the spec's text form — specs
// that differ only in a predictor parameter, a storage tier, the node
// config or a fault knob expand to identically-shaped matrices, yet
// merging their partials has to fail loudly.  One mutation per field,
// each keeping the spec valid; the base runs with faults on so each fault
// knob can move alone.
TEST(ShardPlan, FingerprintCoversResultRelevantSpecFields) {
  ScenarioSpec base = DistributedSpec();
  base.faults.outage_rate_per_day = 0.2;
  base.faults.outage_mean_slots = 6.0;
  base.faults.dropout_rate_per_day = 0.5;
  base.faults.dropout_mean_slots = 4.0;
  base.faults.panel_decay_per_day = 0.001;
  base.faults.battery_aging_per_day = 0.002;
  base.faults.recovery_window_slots = 12;
  const std::string base_text = base.Describe();
  const std::uint64_t fp = BuildShardPlan(base, 5).fingerprint;

  struct Mutation {
    const char* field;
    void (*mutate)(ScenarioSpec&);
  };
  const Mutation mutations[] = {
      {"name", [](ScenarioSpec& s) { s.name = "distributed2"; }},
      {"seed", [](ScenarioSpec& s) { ++s.seed; }},
      {"days", [](ScenarioSpec& s) { s.days = 31; }},
      {"slots_per_day", [](ScenarioSpec& s) { s.slots_per_day = 24; }},
      {"nodes_per_cell", [](ScenarioSpec& s) { s.nodes_per_cell = 4; }},
      {"sites[1]", [](ScenarioSpec& s) { s.sites[1] = "ORNL"; }},
      {"sites count", [](ScenarioSpec& s) { s.sites.push_back("ORNL"); }},
      {"tiers[0]", [](ScenarioSpec& s) { s.storage_tiers_j[0] = 2000.0; }},
      {"tiers count",
       [](ScenarioSpec& s) { s.storage_tiers_j.push_back(9000.0); }},
      {"predictors count",
       [](ScenarioSpec& s) { s.predictors.push_back(s.predictors[0]); }},
      {"kind",
       [](ScenarioSpec& s) { s.predictors[1].kind = PredictorKind::kWcmaVm; }},
      {"wcma.alpha", [](ScenarioSpec& s) { s.predictors[0].wcma.alpha = 0.5; }},
      {"wcma.days", [](ScenarioSpec& s) { s.predictors[0].wcma.days = 9; }},
      {"wcma.slots_k",
       [](ScenarioSpec& s) { s.predictors[0].wcma.slots_k = 2; }},
      {"ewma_weight",
       [](ScenarioSpec& s) { s.predictors[0].ewma_weight = 0.3; }},
      {"ar.order", [](ScenarioSpec& s) { s.predictors[0].ar.order = 2; }},
      {"ar.days", [](ScenarioSpec& s) { s.predictors[0].ar.days = 5; }},
      {"ar.lambda", [](ScenarioSpec& s) { s.predictors[0].ar.lambda = 0.99; }},
      {"ar.delta", [](ScenarioSpec& s) { s.predictors[0].ar.delta = 50.0; }},
      {"adaptive.alphas[0]",
       [](ScenarioSpec& s) { s.predictors[0].adaptive.alphas[0] = 0.2; }},
      {"adaptive.alphas count",
       [](ScenarioSpec& s) { s.predictors[0].adaptive.alphas.pop_back(); }},
      {"adaptive.ks[0]",
       [](ScenarioSpec& s) { s.predictors[0].adaptive.ks[0] = 3; }},
      {"adaptive.ks count",
       [](ScenarioSpec& s) { s.predictors[0].adaptive.ks.pop_back(); }},
      {"adaptive.days",
       [](ScenarioSpec& s) { s.predictors[0].adaptive.days = 12; }},
      {"adaptive.discount",
       [](ScenarioSpec& s) { s.predictors[0].adaptive.discount = 0.9; }},
      {"duty.active_power_w",
       [](ScenarioSpec& s) { s.node.duty.active_power_w = 0.35; }},
      {"duty.sleep_power_w",
       [](ScenarioSpec& s) { s.node.duty.sleep_power_w = 5.0e-6; }},
      {"duty.min_duty", [](ScenarioSpec& s) { s.node.duty.min_duty = 0.05; }},
      {"duty.max_duty", [](ScenarioSpec& s) { s.node.duty.max_duty = 0.9; }},
      {"duty.target_level_fraction",
       [](ScenarioSpec& s) { s.node.duty.target_level_fraction = 0.6; }},
      {"duty.level_gain",
       [](ScenarioSpec& s) { s.node.duty.level_gain = 0.1; }},
      {"storage.capacity_j",
       [](ScenarioSpec& s) { s.node.storage.capacity_j = 800.0; }},
      {"storage.charge_efficiency",
       [](ScenarioSpec& s) { s.node.storage.charge_efficiency = 0.8; }},
      {"storage.leakage_w",
       [](ScenarioSpec& s) { s.node.storage.leakage_w = 2.0e-5; }},
      {"initial_level_fraction",
       [](ScenarioSpec& s) { s.node.initial_level_fraction = 0.6; }},
      {"warmup_days", [](ScenarioSpec& s) { s.node.warmup_days = 19; }},
      {"initial_level_jitter",
       [](ScenarioSpec& s) { s.initial_level_jitter = 0.1; }},
      {"faults.outage_rate_per_day",
       [](ScenarioSpec& s) { s.faults.outage_rate_per_day = 0.3; }},
      {"faults.outage_mean_slots",
       [](ScenarioSpec& s) { s.faults.outage_mean_slots = 5.0; }},
      {"faults.dropout_rate_per_day",
       [](ScenarioSpec& s) { s.faults.dropout_rate_per_day = 0.4; }},
      {"faults.dropout_mean_slots",
       [](ScenarioSpec& s) { s.faults.dropout_mean_slots = 3.0; }},
      {"faults.panel_decay_per_day",
       [](ScenarioSpec& s) { s.faults.panel_decay_per_day = 0.002; }},
      {"faults.battery_aging_per_day",
       [](ScenarioSpec& s) { s.faults.battery_aging_per_day = 0.003; }},
      {"faults.recovery_window_slots",
       [](ScenarioSpec& s) { s.faults.recovery_window_slots = 6; }},
  };
  for (const Mutation& m : mutations) {
    ScenarioSpec mutated = base;
    m.mutate(mutated);
    // Describe validates, and a changed text proves the field is in it.
    EXPECT_NE(mutated.Describe(), base_text) << m.field;
    EXPECT_NE(BuildShardPlan(mutated, 5).fingerprint, fp) << m.field;
  }

  // The one text field the plan does not run on: ExpandScenario forces
  // duty.slot_seconds to 86400 / slots_per_day, so it leaves the
  // fingerprint alone (slots_per_day, above, moves it).
  ScenarioSpec reslotted = base;
  reslotted.node.duty.slot_seconds = 900.0;
  EXPECT_NE(reslotted.Describe(), base_text);
  EXPECT_EQ(BuildShardPlan(reslotted, 5).fingerprint, fp);
}

TEST(FleetPartial, SerializeParseRoundTripIsBitIdentical) {
  const ShardPlan plan = BuildShardPlan(DistributedSpec(), 5);
  std::vector<std::size_t> subset(plan.shards.size());
  std::iota(subset.begin(), subset.end(), 0);
  const FleetPartial original = RunFleetShards(plan, subset);

  const FleetPartial parsed = FleetPartial::Parse(original.Serialize());
  EXPECT_EQ(parsed.scenario_name, original.scenario_name);
  EXPECT_EQ(parsed.plan_fingerprint, original.plan_fingerprint);
  EXPECT_EQ(parsed.nodes_simulated, original.nodes_simulated);
  EXPECT_EQ(parsed.predictor_runs, original.predictor_runs);
  EXPECT_GT(original.predictor_runs, 0u);
  EXPECT_EQ(parsed.synth_seconds, original.synth_seconds);
  EXPECT_EQ(parsed.sim_seconds, original.sim_seconds);
  ASSERT_EQ(parsed.shards.size(), original.shards.size());
  for (std::size_t s = 0; s < original.shards.size(); ++s) {
    EXPECT_EQ(parsed.shards[s].shard, original.shards[s].shard);
    ASSERT_EQ(parsed.shards[s].cells.size(), original.shards[s].cells.size());
    for (std::size_t c = 0; c < original.shards[s].cells.size(); ++c) {
      EXPECT_EQ(parsed.shards[s].cells[c].first,
                original.shards[s].cells[c].first);
      ExpectCellBitIdentical(parsed.shards[s].cells[c].second,
                             original.shards[s].cells[c].second);
    }
  }

  // Serializing the parsed value reproduces the wire text exactly.
  EXPECT_EQ(parsed.Serialize(), original.Serialize());

  EXPECT_THROW(FleetPartial::Parse("garbage"), std::invalid_argument);
  // An older format version is refused up front, not mis-aligned.
  std::string v3 = original.Serialize();
  v3.replace(v3.find(" v4\n"), 4, " v3\n");
  EXPECT_THROW(FleetPartial::Parse(v3), std::invalid_argument);

  // The progress hook fires once per lane the subset reads, synthesized or
  // cached, and once per node simulated; the partial's text is the same
  // with and without it, once the wall times are zeroed.
  const std::vector<std::size_t> some = {0, 2};
  std::set<std::size_t> lanes;
  std::size_t nodes = 0;
  for (std::size_t shard : some) {
    const ShardRange& range = plan.shards[shard];
    for (std::size_t i = range.begin_node; i < range.end_node; ++i) {
      lanes.insert(plan.matrix.trace_lane(plan.matrix.nodes[i]));
      ++nodes;
    }
  }
  const auto untimed = [](FleetPartial partial) {
    partial.synth_seconds = 0.0;
    partial.sim_seconds = 0.0;
    return partial.Serialize();
  };
  const std::string unhooked = untimed(RunFleetShards(plan, some));
  TraceCache cache;
  std::size_t progress = 0;
  FleetRunOptions hooked;
  hooked.trace_cache = &cache;
  hooked.on_progress = [&progress] { ++progress; };
  for (const char* run : {"cold cache", "warm cache"}) {
    progress = 0;
    EXPECT_EQ(untimed(RunFleetShards(plan, some, hooked)), unhooked) << run;
    EXPECT_EQ(progress, lanes.size() + nodes) << run;
  }
}

// A count in the wire text sizes nothing: a shard or cell count no input
// could back fails on the first missing entry, as invalid_argument.
TEST(FleetPartial, ParseRejectsHugeCountsWithoutReserving) {
  const ShardPlan plan = BuildShardPlan(DistributedSpec(), 5);
  const std::string text = RunFleetShards(plan, {0}).Serialize();
  const std::string huge = "1000000000000000000";
  for (const std::string key : {"\nshards ", " cells "}) {
    std::string garbled = text;
    const std::size_t at = garbled.find(key) + key.size();
    garbled.replace(at, garbled.find('\n', at) - at, huge);
    EXPECT_THROW(FleetPartial::Parse(garbled), std::invalid_argument) << key;
  }
}

// Corrupted wire bytes must be rejected, never silently reinterpreted.
TEST(FleetPartial, ParseRejectsCorruptedAggregates) {
  std::ostringstream os;
  FixedHistogram h(0.0, 1.0, 10);
  h.Add(0.35);
  h.Add(0.35);
  h.Serialize(os);
  const std::string good = os.str();

  auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return FixedHistogram::Deserialize(is);
  };
  // Sanity: the untampered line round-trips.
  EXPECT_EQ(parse(good).total(), 2u);

  // A negative bin count would cast to a huge uint64 mass.
  EXPECT_THROW(parse("hist 0x0p+0 0x1p+0 10 0 1 3:-5"),
               std::invalid_argument);
  // A zero count is not a non-zero entry.
  EXPECT_THROW(parse("hist 0x0p+0 0x1p+0 10 0 1 3:0"),
               std::invalid_argument);
  // Duplicate bin indices would overwrite the bin yet double-add total.
  EXPECT_THROW(parse("hist 0x0p+0 0x1p+0 10 0 2 3:1 3:1"),
               std::invalid_argument);
  // Out-of-order entries are equally malformed.
  EXPECT_THROW(parse("hist 0x0p+0 0x1p+0 10 0 2 4:1 3:1"),
               std::invalid_argument);
  // The bin count sizes the histogram, so an absurd one is refused before
  // it allocates anything.
  EXPECT_THROW(parse("hist 0x0p+0 0x1p+0 1000000000000000000 0 0"),
               std::invalid_argument);
  EXPECT_THROW(parse("hist 0x0p+0 0x1p+0 65537 0 0"), std::invalid_argument);
  EXPECT_EQ(parse("hist 0x0p+0 0x1p+0 65536 0 0").bins().size(), 65536u);

  // Integer overflow must not clamp to ULLONG_MAX silently.
  std::istringstream overflow("99999999999999999999999");
  EXPECT_THROW(serdes::ReadU64(overflow), std::invalid_argument);

  // Double overflow must not become infinity silently (no Serialize call
  // ever emits a decimal — hexfloat round-trips exactly).
  std::istringstream double_overflow("1e999");
  EXPECT_THROW(serdes::ReadDouble(double_overflow), std::invalid_argument);
  // Subnormals still parse exactly.
  std::ostringstream tiny;
  serdes::WriteDouble(tiny, 5e-324);  // smallest positive denormal.
  std::istringstream tiny_in(tiny.str());
  EXPECT_EQ(serdes::ReadDouble(tiny_in), 5e-324);
}

// The acceptance criterion: >= 3 separate partial runs, serialized and
// parsed back, merged in any grouping, at several thread counts — always
// bit-identical to the monolithic single-process RunFleet.
TEST(MergeFleetPartials, SerializedPartialRunsReproduceRunFleet) {
  const ScenarioSpec spec = DistributedSpec();
  FleetRunOptions mono_options;
  mono_options.shard_size = 5;
  const FleetSummary monolithic = RunFleet(spec, mono_options);

  const ShardPlan plan = BuildShardPlan(spec, 5);
  ASSERT_GE(plan.shards.size(), 3u);

  // Three serial partial runs over contiguous thirds.
  {
    std::vector<std::vector<std::size_t>> thirds(3);
    for (std::size_t i = 0; i < plan.shards.size(); ++i) {
      thirds[i * 3 / plan.shards.size()].push_back(i);
    }
    ExpectSummaryBitIdentical(RunDistributed(plan, thirds), monolithic);
  }

  // Interleaved grouping (shards of one partial are not contiguous), with
  // the subsets handed over in scrambled order.
  {
    auto groups = RoundRobinGroups(plan, 3);
    for (auto& group : groups) {
      std::reverse(group.begin(), group.end());
    }
    std::swap(groups[0], groups[2]);
    ExpectSummaryBitIdentical(RunDistributed(plan, groups), monolithic);
  }

  // One partial per shard (the finest grouping), executed on a pool.
  {
    ThreadPool pool(4);
    FleetRunOptions options;
    options.pool = &pool;
    std::vector<std::vector<std::size_t>> singles;
    for (std::size_t i = 0; i < plan.shards.size(); ++i) {
      singles.push_back({i});
    }
    ExpectSummaryBitIdentical(RunDistributed(plan, singles, options),
                              monolithic);
  }
}

TEST(MergeFleetPartials, RejectsForeignMissingAndDuplicateCoverage) {
  const ShardPlan plan = BuildShardPlan(DistributedSpec(), 5);
  const auto groups = RoundRobinGroups(plan, 2);
  std::vector<FleetPartial> partials;
  for (const auto& group : groups) {
    partials.push_back(RunFleetShards(plan, group));
  }

  // Happy path sanity first.
  EXPECT_EQ(MergeFleetPartials(plan, partials).node_count,
            plan.matrix.nodes.size());

  // A shard missing.
  EXPECT_THROW(MergeFleetPartials(plan, {partials[0]}),
               std::invalid_argument);

  // A shard covered twice.
  EXPECT_THROW(
      MergeFleetPartials(plan, {partials[0], partials[1], partials[0]}),
      std::invalid_argument);

  // A partial from a different plan (other seed => other fingerprint).
  ScenarioSpec reseeded = DistributedSpec();
  reseeded.seed = 123456;
  const ShardPlan foreign_plan = BuildShardPlan(reseeded, 5);
  std::vector<FleetPartial> foreign = partials;
  foreign[0].plan_fingerprint = foreign_plan.fingerprint;
  EXPECT_THROW(MergeFleetPartials(plan, foreign), std::invalid_argument);

  // Malformed subsets are rejected by RunFleetShards itself.
  EXPECT_THROW(RunFleetShards(plan, {}), std::invalid_argument);
  EXPECT_THROW(RunFleetShards(plan, {0, 0}), std::invalid_argument);
  EXPECT_THROW(RunFleetShards(plan, {plan.shards.size()}),
               std::invalid_argument);
}

TEST(TraceCache, HitReturnsTheIdenticalSeries) {
  TraceCache cache;
  const auto a = cache.Get("HSU", 42, 30, 48);
  const auto b = cache.Get("HSU", 42, 30, 48);
  EXPECT_EQ(a.get(), b.get());  // literally the same object.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  // Any differing key component is a distinct entry.
  EXPECT_NE(cache.Get("PFCI", 42, 30, 48).get(), a.get());
  EXPECT_NE(cache.Get("HSU", 43, 30, 48).get(), a.get());
  EXPECT_NE(cache.Get("HSU", 42, 31, 48).get(), a.get());
  EXPECT_NE(cache.Get("HSU", 42, 30, 24).get(), a.get());
  EXPECT_EQ(cache.stats().entries, 5u);

  // The cached series is the same synthesis a direct run performs.
  TraceCache fresh;
  const auto c = fresh.Get("HSU", 42, 30, 48);
  ASSERT_EQ(c->size(), a->size());
  for (std::size_t g = 0; g < a->size(); ++g) {
    EXPECT_EQ(c->boundary(g), a->boundary(g));
    EXPECT_EQ(c->mean(g), a->mean(g));
  }
}

TEST(TraceCache, RunStatsReportCacheAndClearSkyDeltas) {
  const ScenarioSpec spec = DistributedSpec();
  const FleetSummary reference = RunFleet(spec);
  ClearClearSkyMemo();

  // A cold cache misses once per lane; the summary must not notice, and
  // the run stats must report the traffic.
  TraceCache cache;
  FleetRunOptions options;
  options.trace_cache = &cache;
  FleetRunStats info;
  const FleetSummary cached = RunFleet(spec, options, &info);
  ExpectSummaryBitIdentical(cached, reference);

  EXPECT_EQ(info.trace_cache_misses, info.unique_traces);
  EXPECT_EQ(info.trace_cache_hits, 0u);
  EXPECT_EQ(cache.stats().entries, info.unique_traces);

  // Phase 1's synthesis goes through the process-wide clear-sky memo:
  // every (site, day-of-year) profile misses once, and the other lanes of
  // the same site hit it.
  EXPECT_GT(info.clearsky_misses, 0u);
  EXPECT_GT(info.clearsky_hits, 0u);
}

TEST(TraceCache, CachedRunsAreBitIdenticalAndWarmRunsHit) {
  const ScenarioSpec spec = DistributedSpec();
  const FleetSummary uncached = RunFleet(spec);

  TraceCache cache;
  ThreadPool pool(4);
  FleetRunOptions options;
  options.pool = &pool;
  options.trace_cache = &cache;

  FleetRunStats cold_info;
  const FleetSummary cold = RunFleet(spec, options, &cold_info);
  ExpectSummaryBitIdentical(cold, uncached);
  EXPECT_EQ(cold_info.trace_cache_hits, 0u);
  EXPECT_EQ(cold_info.trace_cache_misses, cold_info.unique_traces);

  // A warm re-run synthesizes nothing and still matches bit for bit.
  FleetRunStats warm_info;
  const FleetSummary warm = RunFleet(spec, options, &warm_info);
  ExpectSummaryBitIdentical(warm, uncached);
  EXPECT_EQ(warm_info.trace_cache_hits, warm_info.unique_traces);
  EXPECT_EQ(warm_info.trace_cache_misses, 0u);

  // Partial runs share the same cache: a subset run on warm lanes hits.
  const ShardPlan plan = BuildShardPlan(spec, options.shard_size);
  FleetRunStats subset_info;
  RunFleetShards(plan, {0}, options, &subset_info);
  EXPECT_GT(subset_info.trace_cache_hits, 0u);
  EXPECT_EQ(subset_info.trace_cache_misses, 0u);
}

// ---- Shared forecasts -------------------------------------------------------

/// Every PredictorKind (the two costed backends among them) on three
/// storage tiers, healthy: each (lane, design) pair feeds one node per
/// tier.  Short, so the sanitizer builds stay quick, but every design's
/// history fills before scoring starts.
ScenarioSpec SharedForecastSpec(std::size_t nodes_per_cell) {
  ScenarioSpec spec;
  spec.name = "shared_forecast";
  spec.sites = {"HSU"};
  for (PredictorKind kind :
       {PredictorKind::kWcma, PredictorKind::kWcmaFixed,
        PredictorKind::kWcmaVm, PredictorKind::kEwma, PredictorKind::kAr,
        PredictorKind::kAdaptiveWcma, PredictorKind::kPersistence,
        PredictorKind::kPreviousDay}) {
    PredictorSpec design;
    design.kind = kind;
    design.wcma.days = 5;
    design.ar.days = 5;
    design.adaptive.days = 5;
    spec.predictors.push_back(design);
  }
  spec.storage_tiers_j = {1500.0, 4000.0, 12000.0};
  spec.nodes_per_cell = nodes_per_cell;
  spec.days = 16;
  spec.slots_per_day = 48;
  spec.seed = 29;
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 8;
  spec.initial_level_jitter = 0.2;
  return spec;
}

struct SharingShape {
  const char* name;
  std::size_t nodes_per_cell;
  std::size_t shard_size;
  /// Sum of predictor_runs over one RunFleetShards call per shard.
  std::size_t single_shard_runs;
  /// The same calls in plan order, all against one ForecastMemo.
  std::size_t memo_plan_order_runs;
};

// With one replica, a (site, design) block is its three tier nodes in a
// row, and a shard of six holds two whole blocks: tier siblings share a
// shard, so even single-shard runs record each pair once (8 designs).
// With three replicas a pair's nodes lie three apart, so no shard of two
// or three holds two of them: single-shard runs never share and make one
// pass per node (8 x 3 x 3).  A memo kept across the calls shares them:
// a shard of three is one cell and reads all three lanes, so each pair is
// recorded once (3 lanes x 8 designs).  A shard of two reads two lanes,
// and one of the two gaps between a pair's readers crosses a shard that
// does not read the pair's lane; the memo drops the recording there, so
// each pair is recorded twice.
constexpr SharingShape kSharingShapes[] = {
    {"siblings share a shard", 1, 6, 8, 8},
    {"one cell per shard", 3, 3, 72, 24},
    {"siblings straddle shards", 3, 2, 72, 48},
};

std::vector<std::size_t> AllShards(const ShardPlan& plan) {
  std::vector<std::size_t> all(plan.shards.size());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

/// Every cell accumulator's serialized bytes, in cell order.
std::string CellBytes(const FleetSummary& summary) {
  std::ostringstream os;
  for (const CellAccumulator& cell : summary.stats) cell.Serialize(os);
  return os.str();
}

/// The plan's summary with one predictor pass per node: SimulateSpecNode
/// for every node, reduced per shard and merged in plan order as
/// RunFleetShards reduces its own.
FleetSummary OnePassPerNode(const ShardPlan& plan) {
  const ScenarioMatrix& matrix = plan.matrix;
  const ScenarioSpec& s = matrix.spec;
  TraceCache lanes;
  std::vector<FleetPartial> partials(1);
  partials[0].scenario_name = s.name;
  partials[0].plan_fingerprint = plan.fingerprint;
  for (const ShardRange& range : plan.shards) {
    ShardCells& local = partials[0].shards.emplace_back();
    local.shard = range.index;
    for (std::size_t i = range.begin_node; i < range.end_node; ++i) {
      const FleetNodeConfig& node = matrix.nodes[i];
      const ScenarioCell& cell = matrix.cells[node.cell];
      const TraceLanePlan& lane = plan.lanes[matrix.trace_lane(node)];
      NodeSimConfig config = s.node;
      config.storage.capacity_j = cell.storage_j;
      config.initial_level_fraction = node.initial_level_fraction;
      const NodeSimResult result = SimulateSpecNode(
          s.predictors[cell.predictor_index], s.slots_per_day,
          *lanes.Get(lane.site_code, lane.trace_seed, s.days,
                     s.slots_per_day),
          config);
      if (local.cells.empty() || local.cells.back().first != node.cell) {
        local.cells.emplace_back(node.cell, CellAccumulator{});
      }
      local.cells.back().second.Add(result);
    }
  }
  return MergeFleetPartials(plan, partials);
}

TEST(SharedForecasts, MatchOnePredictorPassPerNode) {
  for (const SharingShape& shape : kSharingShapes) {
    SCOPED_TRACE(shape.name);
    const ShardPlan plan = BuildShardPlan(
        SharedForecastSpec(shape.nodes_per_cell), shape.shard_size);
    const std::size_t pairs =
        plan.lanes.size() * plan.matrix.spec.predictors.size();
    ASSERT_EQ(plan.matrix.nodes.size(), 3 * pairs);
    const std::string reference = CellBytes(OnePassPerNode(plan));

    // The whole plan in one call: every pair feeds three tiers, so each
    // is recorded once, at any thread count.
    for (std::size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      FleetRunOptions options;
      options.pool = &pool;
      FleetRunStats stats;
      std::vector<FleetPartial> partials;
      partials.push_back(
          RunFleetShards(plan, AllShards(plan), options, &stats));
      EXPECT_EQ(CellBytes(MergeFleetPartials(plan, partials)), reference)
          << threads << " threads";
      EXPECT_EQ(stats.predictor_runs, pairs) << threads << " threads";
    }

    // One call per shard, as a coordinated worker runs them.
    std::vector<FleetPartial> singles;
    std::size_t runs = 0;
    for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
      FleetRunStats stats;
      singles.push_back(RunFleetShards(plan, {shard}, {}, &stats));
      runs += stats.predictor_runs;
    }
    EXPECT_EQ(CellBytes(MergeFleetPartials(plan, singles)), reference);
    EXPECT_EQ(runs, shape.single_shard_runs);
  }
}

TEST(SharedForecasts, FaultedRunsKeepOnePassPerNode) {
  // One node per shard: single-shard runs share nothing, so a whole-plan
  // run that shared a faulted forecast would not match them.
  ScenarioSpec spec = SharedForecastSpec(1);
  spec.faults.outage_rate_per_day = 0.3;
  spec.faults.outage_mean_slots = 6.0;
  spec.faults.dropout_rate_per_day = 1.0;
  spec.faults.dropout_mean_slots = 2.0;
  spec.faults.recovery_window_slots = 48;
  const ShardPlan plan = BuildShardPlan(spec, 1);
  ThreadPool pool(2);
  FleetRunOptions options;
  options.pool = &pool;
  FleetRunStats stats;
  std::vector<FleetPartial> whole;
  whole.push_back(RunFleetShards(plan, AllShards(plan), options, &stats));
  EXPECT_EQ(stats.predictor_runs, plan.matrix.nodes.size());
  std::vector<FleetPartial> singles;
  for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
    singles.push_back(RunFleetShards(plan, {shard}));
  }
  EXPECT_EQ(CellBytes(MergeFleetPartials(plan, whole)),
            CellBytes(MergeFleetPartials(plan, singles)));
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(SharedForecasts, TraceFilesMatchSingleShardRuns) {
  for (const SharingShape& shape : kSharingShapes) {
    SCOPED_TRACE(shape.name);
    const ShardPlan plan = BuildShardPlan(
        SharedForecastSpec(shape.nodes_per_cell), shape.shard_size);
    const auto root = std::filesystem::path(::testing::TempDir()) /
                      ("shep_shared_forecast_" +
                       std::to_string(shape.nodes_per_cell));
    std::filesystem::remove_all(root);
    TraceSinkOptions whole_options;
    whole_options.directory = (root / "whole").string();
    TraceSinkOptions singles_options;
    singles_options.directory = (root / "singles").string();
    {
      ThreadPool pool(4);
      TraceSink sink(whole_options);
      FleetRunOptions options;
      options.pool = &pool;
      options.trace_sink = &sink;
      FleetRunStats stats;
      (void)RunFleetShards(plan, AllShards(plan), options, &stats);
      EXPECT_EQ(stats.predictor_runs, plan.matrix.nodes.size() / 3);
    }
    {
      TraceSink sink(singles_options);
      FleetRunOptions options;
      options.trace_sink = &sink;
      for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
        (void)RunFleetShards(plan, {shard}, options);
      }
    }
    for (const ShardRange& shard : plan.shards) {
      const std::string name =
          TraceShardFile::FileName(plan.fingerprint, shard.index);
      const std::string whole =
          FileBytes((std::filesystem::path(whole_options.directory) / name)
                        .string());
      EXPECT_FALSE(whole.empty()) << "shard " << shard.index;
      EXPECT_EQ(whole, FileBytes((std::filesystem::path(
                                      singles_options.directory) /
                                  name)
                                     .string()))
          << "shard " << shard.index;
    }
    std::filesystem::remove_all(root);
  }
}

// ---- One memo across calls, as shep_fleet_worker runs a plan ---------------

/// The lanes the listed shards read.
std::set<std::size_t> LanesOf(const ShardPlan& plan,
                              const std::vector<std::size_t>& shards) {
  std::set<std::size_t> lanes;
  for (std::size_t shard : shards) {
    const ShardRange& range = plan.shards[shard];
    for (std::size_t i = range.begin_node; i < range.end_node; ++i) {
      lanes.insert(plan.matrix.trace_lane(plan.matrix.nodes[i]));
    }
  }
  return lanes;
}

/// One lane cache for every memo test's calls, as a worker keeps one for
/// its job: otherwise each one-shard call re-synthesizes its lanes.
TraceCache& LaneCache() {
  static TraceCache cache;
  return cache;
}

struct MemoRun {
  std::string cells;  ///< CellBytes of the merged summary.
  std::size_t predictor_runs = 0;
  std::size_t live_after = 0;  ///< recordings the memo still holds.
};

/// Runs each entry of `calls` as one RunFleetShards call against one
/// persistent memo, as a worker runs the jobs it is sent, and checks the
/// memo's bound after every call.  Shards no call names are left to
/// "another worker": one memo-less call per shard, not counted.
MemoRun RunWithMemo(const ShardPlan& plan,
                    const std::vector<std::vector<std::size_t>>& calls,
                    ThreadPool* pool = nullptr, TraceSink* sink = nullptr) {
  ForecastMemo memo(plan, AllShards(plan));
  FleetRunOptions options;
  options.pool = pool;
  options.trace_cache = &LaneCache();
  options.trace_sink = sink;
  options.forecast_memo = &memo;
  const std::size_t designs = plan.matrix.spec.predictors.size();
  MemoRun run;
  std::vector<FleetPartial> partials;
  std::vector<bool> covered(plan.shards.size(), false);
  for (const std::vector<std::size_t>& call : calls) {
    FleetRunStats stats;
    partials.push_back(RunFleetShards(plan, call, options, &stats));
    EXPECT_EQ(partials.back().predictor_runs, stats.predictor_runs);
    run.predictor_runs += stats.predictor_runs;
    EXPECT_LE(memo.live_recordings(), LanesOf(plan, call).size() * designs);
    for (std::size_t shard : call) covered[shard] = true;
  }
  run.live_after = memo.live_recordings();
  options.forecast_memo = nullptr;
  for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
    if (!covered[shard]) {
      partials.push_back(RunFleetShards(plan, {shard}, options));
    }
  }
  run.cells = CellBytes(MergeFleetPartials(plan, partials));
  return run;
}

std::vector<std::vector<std::size_t>> OnePerCall(
    const std::vector<std::size_t>& shards) {
  std::vector<std::vector<std::size_t>> calls;
  for (std::size_t shard : shards) calls.push_back({shard});
  return calls;
}

/// The plan's shards grouped by the set of lanes they read, groups in
/// order of first appearance and shards in plan order: the order in which
/// lane-affinity dispatch feeds a lone worker.
std::vector<std::vector<std::size_t>> LaneGroups(const ShardPlan& plan) {
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::set<std::size_t>, std::size_t> index;
  for (const ShardRange& range : plan.shards) {
    const auto [it, added] =
        index.emplace(LanesOf(plan, {range.index}), groups.size());
    if (added) groups.emplace_back();
    groups[it->second].push_back(range.index);
  }
  return groups;
}

struct CallPattern {
  std::string name;
  std::vector<std::vector<std::size_t>> calls;
  bool pooled;             ///< calls run on a 4-thread pool.
  bool runs_every_reader;  ///< every shard goes through the memo.
};

std::vector<CallPattern> CallPatterns(const ShardPlan& plan) {
  std::vector<std::size_t> lane_order;
  const std::vector<std::vector<std::size_t>> groups = LaneGroups(plan);
  for (const std::vector<std::size_t>& group : groups) {
    lane_order.insert(lane_order.end(), group.begin(), group.end());
  }
  std::vector<std::size_t> shuffled = AllShards(plan);
  std::mt19937 rng(13);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  // A steal: the middle shard goes to another worker, so the memo never
  // sees some pair's last reader.
  std::vector<std::size_t> stolen = AllShards(plan);
  stolen.erase(stolen.begin() +
               static_cast<std::ptrdiff_t>(stolen.size() / 2));
  return {
      {"plan order", OnePerCall(AllShards(plan)), false, true},
      {"plan order, 4 threads", OnePerCall(AllShards(plan)), true, true},
      {"lane-group order", OnePerCall(lane_order), false, true},
      {"shuffled", OnePerCall(shuffled), false, true},
      {"sibling left out", OnePerCall(stolen), false, false},
      // Several shards per call: siblings meet on different pool threads.
      {"one call per lane group, 4 threads", groups, true, true},
  };
}

/// The shapes in which a memo kept across one-shard calls shares more
/// than the calls share on their own.
std::vector<SharingShape> CrossCallShapes() {
  std::vector<SharingShape> shapes;
  for (const SharingShape& shape : kSharingShapes) {
    if (shape.memo_plan_order_runs < shape.single_shard_runs) {
      shapes.push_back(shape);
    }
  }
  return shapes;
}

TEST(ForecastMemo, SharesAcrossCallsInAnyOrder) {
  ThreadPool pool(4);
  for (const SharingShape& shape : CrossCallShapes()) {
    SCOPED_TRACE(shape.name);
    const ShardPlan plan = BuildShardPlan(
        SharedForecastSpec(shape.nodes_per_cell), shape.shard_size);
    const std::size_t nodes = plan.matrix.nodes.size();
    const std::size_t pairs = nodes / 3;
    const std::string reference = CellBytes(OnePassPerNode(plan));
    for (const CallPattern& pattern : CallPatterns(plan)) {
      SCOPED_TRACE(pattern.name);
      const MemoRun run =
          RunWithMemo(plan, pattern.calls, pattern.pooled ? &pool : nullptr);
      EXPECT_EQ(run.cells, reference);
      if (pattern.name.starts_with("plan order")) {
        EXPECT_EQ(run.predictor_runs, shape.memo_plan_order_runs);
      }
      if (pattern.runs_every_reader) {
        EXPECT_GE(run.predictor_runs, pairs);
        EXPECT_LE(run.predictor_runs, nodes);
        EXPECT_EQ(run.live_after, 0u);
      }
    }
  }
}

TEST(ForecastMemo, TraceFilesMatchMemolessRuns) {
  // The shape whose memo drops and re-records pairs.  The reference is one
  // memo-less call per shard, which with three replicas never holds two
  // readers of a pair: one predictor pass per node.
  const SharingShape& shape = kSharingShapes[2];
  const ShardPlan plan = BuildShardPlan(
      SharedForecastSpec(shape.nodes_per_cell), shape.shard_size);
  const auto root =
      std::filesystem::path(::testing::TempDir()) / "shep_forecast_memo";
  std::filesystem::remove_all(root);
  TraceSinkOptions reference_options;
  reference_options.directory = (root / "reference").string();
  {
    TraceSink sink(reference_options);
    FleetRunOptions options;
    options.trace_cache = &LaneCache();
    options.trace_sink = &sink;
    for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
      (void)RunFleetShards(plan, {shard}, options);
    }
  }
  ThreadPool pool(4);
  const std::vector<CallPattern> patterns = CallPatterns(plan);
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    SCOPED_TRACE(patterns[p].name);
    TraceSinkOptions options;
    options.directory = (root / std::to_string(p)).string();
    {
      TraceSink sink(options);
      (void)RunWithMemo(plan, patterns[p].calls,
                        patterns[p].pooled ? &pool : nullptr, &sink);
    }
    for (const ShardRange& shard : plan.shards) {
      const std::string name =
          TraceShardFile::FileName(plan.fingerprint, shard.index);
      const std::string expected = FileBytes(
          (std::filesystem::path(reference_options.directory) / name)
              .string());
      EXPECT_FALSE(expected.empty()) << "shard " << shard.index;
      EXPECT_EQ(
          FileBytes((std::filesystem::path(options.directory) / name)
                        .string()),
          expected)
          << "shard " << shard.index;
    }
  }
  std::filesystem::remove_all(root);
}

TEST(ForecastMemo, FaultedPlansKeepOnePassPerNode) {
  ScenarioSpec spec = SharedForecastSpec(3);
  spec.faults.outage_rate_per_day = 0.3;
  spec.faults.outage_mean_slots = 6.0;
  spec.faults.dropout_rate_per_day = 1.0;
  spec.faults.dropout_mean_slots = 2.0;
  spec.faults.recovery_window_slots = 48;
  const ShardPlan plan = BuildShardPlan(spec, 3);
  std::vector<FleetPartial> whole;
  whole.push_back(RunFleetShards(plan, AllShards(plan)));
  const MemoRun run = RunWithMemo(plan, OnePerCall(AllShards(plan)));
  EXPECT_EQ(run.cells, CellBytes(MergeFleetPartials(plan, whole)));
  EXPECT_EQ(run.predictor_runs, plan.matrix.nodes.size());
  EXPECT_EQ(run.live_after, 0u);
}

TEST(ForecastMemo, RejectsARepeatedShardAndAForeignPlan) {
  const ShardPlan plan = BuildShardPlan(SharedForecastSpec(3), 3);
  ForecastMemo memo(plan, AllShards(plan));
  FleetRunOptions options;
  options.forecast_memo = &memo;
  (void)RunFleetShards(plan, {0}, options);
  EXPECT_THROW((void)RunFleetShards(plan, {1, 0}, options),
               std::invalid_argument);
  const ShardPlan other = BuildShardPlan(SharedForecastSpec(3), 2);
  EXPECT_THROW((void)RunFleetShards(other, {0}, options),
               std::invalid_argument);
  // The refused calls ran nothing: shard 1 is still the memo's to run.
  (void)RunFleetShards(plan, {1}, options);
}

}  // namespace
}  // namespace shep
