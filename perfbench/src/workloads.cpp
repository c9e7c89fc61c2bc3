// workloads.cpp — the four workloads: their inputs, one cold timed
// repetition each, and the serial stage-by-stage replay that is both the
// per-layer pass's pipeline and every run's correctness reference.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/threadpool.hpp"
#include "fleet/coord.hpp"
#include "fleet/partial.hpp"
#include "fleet/runner.hpp"
#include "fleet/trace_cache.hpp"
#include "perfbench.hpp"
#include "solar/clearsky.hpp"
#include "solar/sites.hpp"
#include "solar/synth.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

using namespace shep;

namespace {

/// Set-up is repeated within a repetition until it has this many samples
/// or this much total time, whichever comes first.
constexpr std::size_t kMaxSetupSamples = 5;
constexpr double kSetupBudgetS = 0.05;

std::vector<PredictorSpec> Kinds(std::initializer_list<PredictorKind> kinds) {
  std::vector<PredictorSpec> out;
  for (const PredictorKind kind : kinds) out.push_back(FleetDesign(kind));
  return out;
}

// ---- paper_sweep inputs ----------------------------------------------------

struct SweepSetup {
  std::vector<PowerTrace> traces;
  std::vector<SweepContext> contexts;
};

std::vector<int> SweepNs(bool tiny) {
  if (tiny) return {48, 24};
  return {std::begin(kPaperSlotCounts), std::end(kPaperSlotCounts)};
}

ParamGrid SweepGrid(bool tiny) {
  return tiny ? ParamGrid::Coarse() : ParamGrid::Paper();
}

/// The paper's protocol: days 21.., samples >= 10 % of peak.
RoiFilter SweepFilter() {
  RoiFilter filter;
  filter.first_day = 20;
  filter.threshold_fraction = 0.10;
  return filter;
}

SynthOptions SweepSynth(std::uint64_t seed, bool tiny) {
  SynthOptions options;
  options.days = tiny ? 30 : 365;
  options.seed_offset = seed;
  return options;
}

bool Representable(const PowerTrace& trace, int n) {
  return (kSecondsPerDay / n) % trace.resolution_s() == 0;
}

SweepSetup BuildSweepSetup(std::uint64_t seed, bool tiny) {
  SweepSetup setup;
  setup.traces = SynthesizePaperTraces(SweepSynth(seed, tiny));
  const std::vector<int> ns = SweepNs(tiny);
  setup.contexts.reserve(setup.traces.size() * ns.size());
  for (const PowerTrace& trace : setup.traces) {
    for (const int n : ns) {
      if (Representable(trace, n)) setup.contexts.emplace_back(trace, n);
    }
  }
  return setup;
}

/// The rendered output of paper_sweep: Table III's best design per
/// (trace, N) plus the best MAPE with K pinned to 2, doubles as hexfloats.
std::string BestDesignTable(const std::vector<SweepResult>& results) {
  std::string out = "dataset,N,alpha,D,K,MAPE,MAPE@K=2,degenerate\n";
  for (const SweepResult& result : results) {
    const SweepPoint& best = result.BestByMape();
    const SweepPoint* k2 = result.BestByMapeWithK(2);
    char line[256];
    std::snprintf(line, sizeof line, "%s,%d,%a,%d,%d,%a,%a,%d\n",
                  result.dataset.c_str(), result.slots_per_day, best.alpha,
                  best.days_d, best.slots_k, best.mean_stats.mape,
                  k2 != nullptr ? k2->mean_stats.mape : -1.0,
                  result.degenerate ? 1 : 0);
    out += line;
  }
  return out;
}

Shape SweepShape(const SweepSetup& setup, bool tiny) {
  Shape shape;
  shape.days = SweepSynth(0, tiny).days;
  shape.traces = setup.traces.size();
  shape.contexts = setup.contexts.size();
  shape.designs = setup.contexts.size() * SweepGrid(tiny).size();
  shape.parallelism = WorkloadParallelism(Workload::kPaperSweep);
  return shape;
}

Shape FleetShape(Workload workload, const ShardPlan& plan) {
  Shape shape;
  shape.nodes = plan.matrix.nodes.size();
  shape.cells = plan.matrix.cells.size();
  shape.lanes = plan.lanes.size();
  shape.days = plan.matrix.spec.days;
  shape.shards = plan.shards.size();
  shape.parallelism = WorkloadParallelism(workload);
  return shape;
}

std::vector<std::size_t> AllShards(const ShardPlan& plan) {
  std::vector<std::size_t> all(plan.shards.size());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

// ---- Repetitions -----------------------------------------------------------

RepResult RunFleetRep(Workload workload, std::uint64_t seed, bool tiny) {
  const bool coordinated = workload == Workload::kFleetCoord;
  const bool traced = workload == Workload::kFleetFaultedTraced;
  const std::string text = FleetSpec(workload, seed, tiny).Describe();

  RepResult rep;
  ScenarioSpec spec;
  std::unique_ptr<ShardPlan> plan;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<TraceSink> sink;
  double setup_total = 0.0;
  do {
    sink.reset();
    pool.reset();
    plan.reset();
    ClearClearSkyMemo();
    const double t0 = NowSeconds();
    spec = ParseScenarioSpec(text);
    plan = std::make_unique<ShardPlan>(BuildShardPlan(spec, kShardSize));
    if (!coordinated) {
      pool = std::make_unique<ThreadPool>(WorkloadParallelism(workload));
    }
    if (traced) sink = std::make_unique<TraceSink>(TracedSinkOptions(*plan));
    const double dt = NowSeconds() - t0;
    rep.setup_s.push_back(dt);
    setup_total += dt;
  } while (rep.setup_s.size() < kMaxSetupSamples &&
           setup_total < kSetupBudgetS);

  const std::vector<std::size_t> all = AllShards(*plan);
  // Cold campaign: the clear-sky memo is process-wide, so clear it here
  // rather than let set-up rounds warm it for the timed run.
  ClearClearSkyMemo();
  const Usage before = ReadUsage();
  const double t0 = NowSeconds();
  FleetSummary summary;
  if (coordinated) {
    FleetCoordOptions options;
    options.worker_path = PERFBENCH_WORKER_PATH;
    options.workers = WorkloadParallelism(workload);
    options.shard_size = kShardSize;
    FleetCoordStats stats;
    summary = RunFleetCoordinated(spec, options, &stats);
    rep.workers_spawned = stats.workers_spawned;
    rep.frames_accepted = stats.frames_accepted;
    rep.shards_reassigned = stats.shards_reassigned;
    rep.duplicate_frames = stats.duplicate_frames;
    rep.corrupt_frames = stats.corrupt_frames;
  } else {
    FleetRunOptions options;
    options.pool = pool.get();
    options.trace_sink = sink.get();
    FleetRunStats stats;
    std::vector<FleetPartial> partials;
    partials.push_back(RunFleetShards(*plan, all, options, &stats));
    summary = MergeFleetPartials(*plan, partials);
    rep.trace_events = stats.trace_events;
    rep.trace_dropped = stats.trace_dropped;
  }
  const std::string csv = summary.ToCsv();
  rep.wall_s = NowSeconds() - t0;
  const Usage after = ReadUsage();

  rep.cpu_s = after.cpu_s - before.cpu_s;
  rep.peak_rss_mb = std::max(after.self_peak_mb, after.child_peak_mb);
  rep.attempted = plan->shards.size();
  rep.failed = std::min<std::uint64_t>(
      rep.attempted,
      rep.shards_reassigned + rep.duplicate_frames + rep.corrupt_frames);
  if (rep.trace_dropped != 0) rep.failed = rep.attempted;
  rep.digest = FleetDigest(summary, csv);
  return rep;
}

RepResult RunSweepRep(std::uint64_t seed, bool tiny) {
  RepResult rep;
  SweepSetup setup;
  std::unique_ptr<ThreadPool> pool;
  double setup_total = 0.0;
  do {
    setup = SweepSetup{};
    pool.reset();
    ClearClearSkyMemo();
    const double t0 = NowSeconds();
    setup = BuildSweepSetup(seed, tiny);
    pool = std::make_unique<ThreadPool>(
        WorkloadParallelism(Workload::kPaperSweep));
    const double dt = NowSeconds() - t0;
    rep.setup_s.push_back(dt);
    setup_total += dt;
  } while (rep.setup_s.size() < kMaxSetupSamples &&
           setup_total < kSetupBudgetS);

  const ParamGrid grid = SweepGrid(tiny);
  const RoiFilter filter = SweepFilter();
  const Usage before = ReadUsage();
  const double t0 = NowSeconds();
  std::vector<SweepResult> results;
  results.reserve(setup.contexts.size());
  for (const SweepContext& context : setup.contexts) {
    results.push_back(SweepWcma(context, grid, filter, pool.get()));
  }
  const std::string table = BestDesignTable(results);
  rep.wall_s = NowSeconds() - t0;
  const Usage after = ReadUsage();

  rep.cpu_s = after.cpu_s - before.cpu_s;
  rep.peak_rss_mb = after.self_peak_mb;
  for (const SweepResult& result : results) {
    rep.attempted += result.points.size();
  }
  rep.digest = Fnv1a(table);
  return rep;
}

// ---- Replays ---------------------------------------------------------------

ReplayResult ReplayFleet(Workload workload, std::uint64_t seed, bool tiny,
                         SpanLog& log, Metrics* metrics,
                         const std::string& source, bool price_telemetry) {
  const bool traced = workload == Workload::kFleetFaultedTraced;
  const std::string text = FleetSpec(workload, seed, tiny).Describe();
  ClearClearSkyMemo();

  const std::uint32_t root = log.Open("replay", "perfbench");
  ScenarioSpec spec;
  const double parse_s = log.Timed("scenario.parse", "fleet/scenario",
                                   [&] { spec = ParseScenarioSpec(text); });
  ShardPlan plan;
  const double plan_s = log.Timed("shard_plan.build", "fleet/shard_plan", [&] {
    plan = BuildShardPlan(spec, kShardSize);
  });

  // Stage 3: every lane through the trace cache (synthesis + slotting).
  TraceCache cache;
  SynthScratch scratch;
  const ClearSkyMemoStats memo_before = GetClearSkyMemoStats();
  double synth_s = 0.0;
  for (const TraceLanePlan& lane : plan.lanes) {
    synth_s += log.Timed("trace_cache.get", "solar", [&] {
      cache.Get(lane.site_code, lane.trace_seed, spec.days,
                spec.slots_per_day, nullptr, &scratch);
    });
  }
  const ClearSkyMemoStats memo_after = GetClearSkyMemoStats();

  // Stage 4: one RunFleetShards call per shard against the warm cache.
  std::unique_ptr<TraceSink> sink;
  if (traced) sink = std::make_unique<TraceSink>(TracedSinkOptions(plan));
  FleetRunOptions options;
  options.trace_cache = &cache;
  options.trace_sink = sink.get();
  std::vector<FleetPartial> partials;
  partials.reserve(plan.shards.size());
  double sim_s = 0.0;
  for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
    sim_s += log.Timed("runner.shard", "fleet/runner", [&] {
      partials.push_back(RunFleetShards(plan, {shard}, options));
    });
  }

  // Stages 5-7: serde round trip, plan-order merge, render.
  std::vector<FleetPartial> parsed;
  parsed.reserve(partials.size());
  double serialize_s = 0.0;
  double parse_partial_s = 0.0;
  std::size_t bytes = 0;
  for (const FleetPartial& partial : partials) {
    std::string wire;
    serialize_s += log.Timed("partial.serialize", "fleet/partial",
                             [&] { wire = partial.Serialize(); });
    bytes += wire.size();
    parse_partial_s += log.Timed("partial.parse", "fleet/partial", [&] {
      parsed.push_back(FleetPartial::Parse(wire));
    });
  }
  FleetSummary summary;
  const double merge_s = log.Timed("merge", "fleet/merge", [&] {
    summary = MergeFleetPartials(plan, parsed);
  });
  std::string csv;
  const double csv_s =
      log.Timed("report.csv", "report", [&] { csv = summary.ToCsv(); });
  log.Close(root);

  ReplayResult result;
  result.digest = FleetDigest(summary, csv);
  result.shape = FleetShape(workload, plan);
  result.serial_stage_s = synth_s + sim_s;
  if (metrics == nullptr) return result;

  const double shards = static_cast<double>(plan.shards.size());
  const std::uint64_t memo_lookups = (memo_after.hits - memo_before.hits) +
                                     (memo_after.misses - memo_before.misses);
  metrics->Put("scenario.parse_us", 1e6 * parse_s, "us", source);
  metrics->Put("shard_plan.build_ms", 1e3 * plan_s, "ms", source);
  metrics->Put("solar.clearsky_hit_ratio",
               memo_lookups == 0
                   ? 0.0
                   : static_cast<double>(memo_after.hits - memo_before.hits) /
                         static_cast<double>(memo_lookups),
               "ratio", source);
  metrics->Put("runner.synth_s", synth_s, "s", source);
  metrics->Put("runner.sim_s", sim_s, "s", source);
  metrics->Put("partial.serialize_us_per_shard", 1e6 * serialize_s / shards,
               "us", source);
  metrics->Put("partial.parse_us_per_shard", 1e6 * parse_partial_s / shards,
               "us", source);
  metrics->Put("partial.bytes_per_shard", static_cast<double>(bytes) / shards,
               "bytes", source);
  metrics->Put("merge.us_per_shard", 1e6 * merge_s / shards, "us", source);
  metrics->Put("report.csv_ms", 1e3 * csv_s, "ms", source);

  if (traced && price_telemetry) {
    // The same stage 4 without the sink: the difference is what tracing
    // costs on one thread, where the drain runs beside the simulation.
    const TraceSinkStats traced_stats = sink->stats();
    FleetRunOptions untraced;
    untraced.trace_cache = &cache;
    double untraced_s = 0.0;
    const std::uint32_t price = log.Open("telemetry.untraced", "perfbench");
    for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
      untraced_s += log.Timed("runner.shard", "fleet/runner", [&] {
        Keep(RunFleetShards(plan, {shard}, untraced).nodes_simulated);
      });
    }
    log.Close(price);
    const double events = static_cast<double>(traced_stats.events);
    metrics->Put("telemetry.overhead_pct", 100.0 * (sim_s / untraced_s - 1.0),
                 "%", source);
    metrics->Put("telemetry.ns_per_event",
                 events > 0 ? 1e9 * (sim_s - untraced_s) / events : 0.0, "ns",
                 source);
    metrics->Put("telemetry.events", events, "count", source);
    metrics->Put("telemetry.dropped",
                 static_cast<double>(traced_stats.dropped), "count", source);
  }
  return result;
}

ReplayResult ReplaySweep(std::uint64_t seed, bool tiny, SpanLog& log,
                         Metrics* metrics, const std::string& source) {
  const ParamGrid grid = SweepGrid(tiny);
  const RoiFilter filter = SweepFilter();
  const SynthOptions synth = SweepSynth(seed, tiny);
  ClearClearSkyMemo();

  const std::uint32_t root = log.Open("replay", "perfbench");
  SweepSetup setup;
  for (const SiteProfile& site : PaperSites()) {
    log.Timed("solar.synthesize", "solar", [&] {
      setup.traces.push_back(SynthesizeTrace(site, synth));
    });
  }
  std::vector<SweepResult> results;
  double build_d_s = 0.0;
  double build_q_s = 0.0;
  double score_s = 0.0;
  const std::size_t n_k = grid.ks.size();
  const std::size_t n_a = grid.alphas.size();
  for (const PowerTrace& trace : setup.traces) {
    for (const int n : SweepNs(tiny)) {
      if (!Representable(trace, n)) continue;
      log.Timed("sweep.context", "sweep",
                [&] { setup.contexts.emplace_back(trace, n); });
      const SweepContext& context = setup.contexts.back();
      // SweepWcma's loop, one stage per span; the points land in the same
      // D-major order so BestByMape picks identically.
      SweepResult result;
      result.dataset = context.dataset();
      result.slots_per_day = context.slots_per_day();
      result.degenerate = context.series().grid().degenerate();
      result.grid = grid;
      result.points.resize(grid.size());
      for (std::size_t i_d = 0; i_d < grid.days.size(); ++i_d) {
        SweepContext::DSeries d_series;
        build_d_s += log.Timed("sweep.build_d", "sweep", [&] {
          d_series = context.BuildD(grid.days[i_d]);
        });
        for (std::size_t i_k = 0; i_k < n_k; ++i_k) {
          std::vector<double> q;
          build_q_s += log.Timed("sweep.build_q", "sweep", [&] {
            q = context.BuildQ(d_series, grid.ks[i_k]);
          });
          for (std::size_t i_a = 0; i_a < n_a; ++i_a) {
            SweepPoint& p = result.points[(i_d * n_k + i_k) * n_a + i_a];
            score_s += log.Timed("sweep.score", "sweep", [&] {
              const auto score = context.Score(q, grid.alphas[i_a], filter);
              p.mean_stats = score.mean;
              p.boundary_stats = score.boundary;
            });
            p.alpha = grid.alphas[i_a];
            p.days_d = grid.days[i_d];
            p.slots_k = grid.ks[i_k];
          }
        }
      }
      results.push_back(std::move(result));
    }
  }
  std::string table;
  log.Timed("report.best_table", "report",
            [&] { table = BestDesignTable(results); });
  log.Close(root);

  ReplayResult out;
  out.digest = Fnv1a(table);
  out.shape = SweepShape(setup, tiny);
  out.serial_stage_s = build_d_s + build_q_s + score_s;
  if (metrics == nullptr) return out;
  metrics->Put("sweep.build_d_ms", 1e3 * build_d_s, "ms", source);
  metrics->Put("sweep.build_q_ms", 1e3 * build_q_s, "ms", source);
  metrics->Put("sweep.score_ms", 1e3 * score_s, "ms", source);
  metrics->Put("sweep.designs", static_cast<double>(out.shape.designs),
               "count", source);
  return out;
}

}  // namespace

PredictorSpec FleetDesign(PredictorKind kind) {
  PredictorSpec spec;
  spec.kind = kind;
  spec.wcma.alpha = 0.7;
  spec.wcma.days = 10;
  spec.wcma.slots_k = 2;
  return spec;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kFleetMix: return "fleet_mix";
    case Workload::kFleetCoord: return "fleet_coord";
    case Workload::kFleetFaultedTraced: return "fleet_faulted_traced";
    case Workload::kPaperSweep: return "paper_sweep";
  }
  return "?";
}

Workload ParseWorkload(const std::string& name) {
  for (const Workload w :
       {Workload::kFleetMix, Workload::kFleetCoord,
        Workload::kFleetFaultedTraced, Workload::kPaperSweep}) {
    if (name == WorkloadName(w)) return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::size_t BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

std::size_t WorkloadParallelism(Workload workload) {
  // fleet_faulted_traced leaves one core to the trace drain thread.
  if (workload == Workload::kFleetFaultedTraced) {
    return std::max<std::size_t>(1, BenchThreads() - 1);
  }
  return BenchThreads();
}

ScenarioSpec FleetSpec(Workload workload, std::uint64_t seed, bool tiny) {
  ScenarioSpec spec;
  spec.name = WorkloadName(workload);
  spec.seed = seed;
  spec.slots_per_day = kSlotsPerDay;
  spec.storage_tiers_j = {1200.0, 4000.0, 12000.0};
  spec.node.duty.active_power_w = 0.40;
  spec.node.warmup_days = 20;
  switch (workload) {
    case Workload::kFleetMix:
      // Six sites x eight kinds x three tiers: each weather lane feeds 24
      // nodes, so the predictor and kernel layers dominate.
      for (const SiteProfile& site : PaperSites()) {
        spec.sites.push_back(site.code);
      }
      spec.predictors =
          Kinds({PredictorKind::kWcma, PredictorKind::kWcmaFixed,
                 PredictorKind::kWcmaVm, PredictorKind::kEwma,
                 PredictorKind::kAr, PredictorKind::kAdaptiveWcma,
                 PredictorKind::kPersistence, PredictorKind::kPreviousDay});
      spec.nodes_per_cell = tiny ? 1 : 10;
      spec.days = tiny ? 30 : 365;
      break;
    case Workload::kFleetCoord:
      // bench_fleet's full-mode mix: synthesis is about half the work.
      spec.sites = {"ORNL", "ECSU", "PFCI"};
      spec.predictors =
          Kinds({PredictorKind::kWcma, PredictorKind::kWcmaFixed,
                 PredictorKind::kWcmaVm, PredictorKind::kEwma,
                 PredictorKind::kPersistence});
      spec.nodes_per_cell = tiny ? 2 : 40;
      spec.days = tiny ? 30 : 120;
      break;
    case Workload::kFleetFaultedTraced:
      spec.sites = {"ORNL", "ECSU", "PFCI"};
      spec.predictors =
          Kinds({PredictorKind::kWcma, PredictorKind::kWcmaFixed,
                 PredictorKind::kAr, PredictorKind::kEwma});
      spec.nodes_per_cell = tiny ? 2 : 48;
      spec.days = tiny ? 30 : 120;
      spec.faults.outage_rate_per_day = 0.3;
      spec.faults.outage_mean_slots = 6.0;
      spec.faults.dropout_rate_per_day = 0.5;
      spec.faults.dropout_mean_slots = 4.0;
      spec.faults.panel_decay_per_day = 0.001;
      spec.faults.battery_aging_per_day = 0.002;
      break;
    case Workload::kPaperSweep:
      throw std::invalid_argument("paper_sweep has no fleet campaign");
  }
  return spec;
}

TraceSinkOptions TracedSinkOptions(const ShardPlan& plan) {
  TraceSinkOptions options;  // empty directory: stats-only.
  options.block_on_full = true;
  std::size_t max_shard_nodes = 0;
  for (const ShardRange& range : plan.shards) {
    max_shard_nodes = std::max(max_shard_nodes, range.node_count());
  }
  options.ring_capacity = std::max<std::size_t>(
      options.ring_capacity,
      max_shard_nodes * plan.matrix.spec.days *
              static_cast<std::size_t>(plan.matrix.spec.slots_per_day) +
          2);
  return options;
}

std::string Shape::ToJson() const {
  return Json()
      .Int("nodes", nodes)
      .Int("cells", cells)
      .Int("lanes", lanes)
      .Int("days", days)
      .Int("shards", shards)
      .Int("traces", traces)
      .Int("contexts", contexts)
      .Int("designs", designs)
      .Int("parallelism", parallelism)
      .str();
}

std::string RepResult::ToJson() const {
  std::string samples = "[";
  for (const double s : setup_s) {
    if (samples.size() > 1) samples += ", ";
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", s);
    samples += buffer;
  }
  samples += "]";
  return Json()
      .Raw("setup_s", samples)
      .Num("wall_s", wall_s)
      .Num("cpu_s", cpu_s)
      .Num("peak_rss_mb", peak_rss_mb)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Str("digest", Hex64(digest))
      .Int("trace_events", trace_events)
      .Int("trace_dropped", trace_dropped)
      .Int("workers_spawned", workers_spawned)
      .Int("frames_accepted", frames_accepted)
      .Int("shards_reassigned", shards_reassigned)
      .Int("duplicate_frames", duplicate_frames)
      .Int("corrupt_frames", corrupt_frames)
      .str();
}

RepResult RunRep(Workload workload, std::uint64_t seed, bool tiny) {
  return IsFleet(workload) ? RunFleetRep(workload, seed, tiny)
                           : RunSweepRep(seed, tiny);
}

void Metrics::Put(const std::string& name, double value,
                  const std::string& unit, const std::string& source) {
  values_.emplace(name, Metric{value, unit, source});
}

std::string Metrics::ToJson() const {
  Json json;
  for (const auto& [name, metric] : values_) {
    json.Raw(name, Json()
                       .Num("value", metric.value)
                       .Str("unit", metric.unit)
                       .Str("source", metric.source)
                       .str());
  }
  return json.str();
}

ReplayResult Replay(Workload workload, std::uint64_t seed, bool tiny,
                    SpanLog& log, Metrics* metrics, const std::string& source,
                    bool price_telemetry) {
  return IsFleet(workload) ? ReplayFleet(workload, seed, tiny, log, metrics,
                                         source, price_telemetry)
                           : ReplaySweep(seed, tiny, log, metrics, source);
}

std::uint64_t FleetDigest(const FleetSummary& summary,
                          const std::string& csv) {
  std::ostringstream exact;
  for (const CellAccumulator& cell : summary.stats) cell.Serialize(exact);
  return Fnv1a(exact.str(), Fnv1a(csv));
}

}  // namespace perfbench
