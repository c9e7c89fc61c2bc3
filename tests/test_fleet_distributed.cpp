// Tests for the distributed fleet pipeline: shard plans, serialized
// partials, the plan-order merge, and the trace cache.  The acceptance
// pin lives here — a scenario executed as several separate RunFleetShards
// partial runs, each serialized to text and parsed back, must merge into
// a FleetSummary bit-identical (table + CSV + integer totals) to the
// single-process RunFleet at any thread count.
#include "fleet/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/threadpool.hpp"
#include "fleet/partial.hpp"
#include "fleet/shard_plan.hpp"
#include "fleet/trace_cache.hpp"
#include "solar/clearsky.hpp"

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
  EXPECT_EQ(a.Describe(), b.Describe());

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

// The fingerprint must cover every result-relevant spec field — specs that
// differ only in a predictor parameter, a storage tier, or the node config
// expand to identically-shaped matrices, yet merging their partials has to
// fail loudly.
TEST(ShardPlan, FingerprintCoversResultRelevantSpecFields) {
  const ScenarioSpec base = DistributedSpec();
  const std::uint64_t fp = BuildShardPlan(base, 5).fingerprint;

  ScenarioSpec tuned = base;
  tuned.predictors[0].wcma.alpha = 0.5;
  EXPECT_NE(BuildShardPlan(tuned, 5).fingerprint, fp);

  ScenarioSpec retiered = base;
  retiered.storage_tiers_j[0] = 2000.0;
  EXPECT_NE(BuildShardPlan(retiered, 5).fingerprint, fp);

  ScenarioSpec reloaded = base;
  reloaded.node.duty.active_power_w = 0.35;
  EXPECT_NE(BuildShardPlan(reloaded, 5).fingerprint, fp);

  ScenarioSpec rewarmed = base;
  rewarmed.node.warmup_days = 21;
  rewarmed.days = base.days + 1;  // keep the horizon valid.
  EXPECT_NE(BuildShardPlan(rewarmed, 5).fingerprint, fp);

  ScenarioSpec jittered = base;
  jittered.initial_level_jitter = 0.1;
  EXPECT_NE(BuildShardPlan(jittered, 5).fingerprint, fp);
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
  // ever emits an overflowing decimal — hexfloat round-trips exactly).
  std::istringstream double_overflow("1e999");
  EXPECT_THROW(serdes::ReadDouble(double_overflow), std::invalid_argument);
  // Subnormals still parse exactly: underflow ERANGE is not corruption.
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

}  // namespace
}  // namespace shep
