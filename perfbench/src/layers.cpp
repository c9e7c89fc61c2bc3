// layers.cpp — the per-layer pass: a spans-on serial replay of the
// workload, spans-off repetitions to relate it to wall time, stand-in
// replays for stages the workload does not run, and dependency-free timed
// loops over each layer's public functions (the micro-costs the
// google-benchmark binaries measure, ported so they exist without
// libbenchmark).
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/threadpool.hpp"
#include "core/ar.hpp"
#include "core/ewma.hpp"
#include "core/wcma.hpp"
#include "core/wcma_fixed.hpp"
#include "fleet/coord.hpp"
#include "fleet/faults.hpp"
#include "fleet/runner.hpp"
#include "hw/costed_fixed.hpp"
#include "hw/predictor_program.hpp"
#include "hw/vm.hpp"
#include "mgmt/node_sim_kernel.hpp"
#include "perfbench.hpp"
#include "solar/sites.hpp"
#include "solar/synth.hpp"
#include "sweep/evaluator.hpp"
#include "timeseries/slotting.hpp"
#include "trace/policy.hpp"

namespace perfbench {

using namespace shep;

namespace {

constexpr std::size_t kMicroLoops = 60;  // timed loops in MicroSuite.

/// Seconds per call of `f`: a batch of calls is grown until it lasts
/// ~budget/16, then batches run until the budget is spent; the median
/// batch's per-call time is returned.
template <class F>
double PerCall(double budget_s, F&& f) {
  const double target = std::max(2e-4, budget_s / 16.0);
  std::size_t batch = 1;
  for (;;) {
    const double t0 = NowSeconds();
    for (std::size_t i = 0; i < batch; ++i) f();
    if (NowSeconds() - t0 >= target || batch >= (std::size_t{1} << 26)) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  const double deadline = NowSeconds() + budget_s;
  do {
    const double t0 = NowSeconds();
    for (std::size_t i = 0; i < batch; ++i) f();
    per_call.push_back((NowSeconds() - t0) / static_cast<double>(batch));
  } while (NowSeconds() < deadline || per_call.size() < 3);
  return Median(per_call);
}

constexpr PredictorKind kAllKinds[] = {
    PredictorKind::kWcma,         PredictorKind::kWcmaFixed,
    PredictorKind::kWcmaVm,       PredictorKind::kEwma,
    PredictorKind::kAr,           PredictorKind::kAdaptiveWcma,
    PredictorKind::kPersistence,  PredictorKind::kPreviousDay};

/// Slot events of one node, as the trace probe would push them.
struct CollectProbe {
  static constexpr bool kEnabled = true;
  std::vector<TraceEvent>* events = nullptr;

  void operator()(std::uint32_t slot, bool violated, double soc,
                  double predicted_w, double actual_w, double duty,
                  bool outage) const {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kSlot;
    event.violated = violated;
    event.outage = outage;
    event.slot = slot;
    event.soc = soc;
    event.predicted_w = predicted_w;
    event.actual_w = actual_w;
    event.duty = duty;
    events->push_back(event);
  }
};

/// ns per slot of Observe + PredictNext over the whole series (the loop of
/// bench_predictor).
double PredictorNs(Predictor& predictor, const SlotSeries& series,
                   double budget_s) {
  const std::size_t n = series.size();
  const double per_pass = PerCall(budget_s, [&] {
    double acc = 0.0;
    for (std::size_t g = 0; g < n; ++g) {
      predictor.Observe(series.boundary(g));
      acc += predictor.PredictNext();
    }
    predictor.Reset();
    Keep(acc);
  });
  return 1e9 * per_pass / static_cast<double>(n);
}

template <class P>
double FaultedKernelNs(P& predictor, const SlotSeries& series,
                       const NodeSimConfig& config,
                       const FaultSchedule& schedule, double budget_s) {
  const double per_node = PerCall(budget_s, [&] {
    Keep(SimulateNodeKernel(predictor, series, config, NoSlotProbe{},
                            FaultModel(schedule))
             .violations);
  });
  return 1e9 * per_node / static_cast<double>(series.size());
}

void MicroSuite(std::uint64_t seed, double budget_s, Metrics& m) {
  const double each = std::max(0.01, budget_s / kMicroLoops);
  const std::string src = "micro";

  SynthOptions synth;
  synth.days = 60;
  synth.seed_offset = seed;
  const PowerTrace trace = SynthesizeTrace(SiteByCode("ECSU"), synth);
  const SlotSeries series(trace, kSlotsPerDay);
  NodeSimConfig config;
  config.duty.active_power_w = 0.40;
  config.duty.slot_seconds = 86400.0 / kSlotsPerDay;
  config.storage.capacity_j = 4000.0;
  config.warmup_days = 20;

  // core / hw predictors through PredictorSpec::Make, then the kernel.
  for (const PredictorKind kind : kAllKinds) {
    const PredictorSpec spec = FleetDesign(kind);
    const std::string name = PredictorKindName(kind);
    const auto predictor = spec.Make(kSlotsPerDay);
    m.Put("predictor." + name + ".ns_per_slot",
          PredictorNs(*predictor, series, each), "ns", src);
    const double kernel = PerCall(each, [&] {
      Keep(SimulateSpecNode(spec, kSlotsPerDay, series, config).violations);
    });
    m.Put("kernel." + name + ".ns_per_slot",
          1e9 * kernel / static_cast<double>(series.size()), "ns", src);
  }
  m.Put("kernel.floor_ns_per_slot",
        m.Get("kernel.EWMA.ns_per_slot") - m.Get("predictor.EWMA.ns_per_slot"),
        "ns", src);

  // bench_predictor's WCMA K and D points (D=20 / K=2) and FixedWCMA by K.
  for (int k = 1; k <= 6; ++k) {
    Wcma wcma({0.7, 20, k}, kSlotsPerDay);
    m.Put("predictor.WCMA.k" + std::to_string(k) + ".ns_per_slot",
          PredictorNs(wcma, series, each), "ns", src);
  }
  for (const int d : {2, 5, 10, 20}) {
    Wcma wcma({0.7, d, 2}, kSlotsPerDay);
    m.Put("predictor.WCMA.d" + std::to_string(d) + ".ns_per_slot",
          PredictorNs(wcma, series, each), "ns", src);
  }
  for (const int k : {1, 3, 6}) {
    FixedWcma fixed({0.7, 20, k}, kSlotsPerDay);
    m.Put("predictor.FixedWCMA.k" + std::to_string(k) + ".ns_per_slot",
          PredictorNs(fixed, series, each), "ns", src);
  }

  // mgmt kernel with the fault hook, and the schedule it reads.
  const FaultSpec faults =
      FleetSpec(Workload::kFleetFaultedTraced, seed, true).faults;
  FaultSchedule schedule;
  std::uint64_t fault_seed = seed;
  m.Put("faults.schedule_us_per_node", 1e6 * PerCall(each, [&] {
          BuildFaultSchedule(faults, ++fault_seed, series.days(),
                             kSlotsPerDay, schedule);
        }),
        "us", src);
  BuildFaultSchedule(faults, seed, series.days(), kSlotsPerDay, schedule);
  {
    const WcmaParams wcma_params = FleetDesign(PredictorKind::kWcma).wcma;
    Wcma wcma(wcma_params, kSlotsPerDay);
    m.Put("kernel_faulted.WCMA.ns_per_slot",
          FaultedKernelNs(wcma, series, config, schedule, each), "ns", src);
    CostedFixedWcma fixed(wcma_params, kSlotsPerDay);
    m.Put("kernel_faulted.FixedWCMA.ns_per_slot",
          FaultedKernelNs(fixed, series, config, schedule, each), "ns", src);
    ArPredictor ar(ArParams{}, kSlotsPerDay);
    m.Put("kernel_faulted.AR.ns_per_slot",
          FaultedKernelNs(ar, series, config, schedule, each), "ns", src);
    Ewma ewma(0.5, kSlotsPerDay);
    m.Put("kernel_faulted.EWMA.ns_per_slot",
          FaultedKernelNs(ewma, series, config, schedule, each), "ns", src);
  }

  // hw VM: interpreter dispatch (bench_vm's loop) and the WCMA routine.
  {
    MicroVm vm(4);
    const std::vector<Instr> program{
        {Op::kLoadImm, 0, 0, 0, 0.0}, {Op::kLoadImm, 1, 0, 0, 1000.0},
        {Op::kLoadImm, 2, 0, 0, 0.0}, {Op::kLoadImm, 3, 0, 0, 1.0},
        {Op::kAdd, 0, 0, 3, 0.0},     {Op::kSub, 1, 1, 3, 0.0},
        {Op::kJgt, 4, 1, 2, 0.0},     {Op::kStore, 0, 0, 0, 0.0},
        {Op::kHalt, 0, 0, 0, 0.0},
    };
    const double instructions =
        static_cast<double>(vm.Run(program, 100000).instructions);
    m.Put("hw.vm_dispatch_ns_per_instr",
          1e9 * PerCall(each, [&] { Keep(vm.Run(program, 100000).cycles); }) /
              instructions,
          "ns", src);
  }
  for (int k = 1; k <= 7; ++k) {
    WcmaProgramLayout layout;
    layout.slots_k = k;
    layout.alpha = 0.7;
    WcmaVmInputs inputs;
    inputs.sample = 0.9;
    inputs.mu_next = 1.0;
    inputs.recent_samples.assign(static_cast<std::size_t>(k), 0.8);
    inputs.recent_mus.assign(static_cast<std::size_t>(k), 0.95);
    const double cycles = RunWcmaOnVm(layout, inputs).vm.cycles;
    const double ns = 1e9 * PerCall(each, [&] {
      Keep(RunWcmaOnVm(layout, inputs).prediction);
    });
    const std::string key = "hw.wcma_routine.k" + std::to_string(k);
    m.Put(key + ".ns", ns, "ns", src);
    m.Put(key + ".cycles", cycles, "cycles", src);
    if (k == FleetDesign(PredictorKind::kWcmaVm).wcma.slots_k) {
      m.Put("hw.wcma_routine_ns", ns, "ns", src);
      m.Put("hw.wcma_routine_cycles", cycles, "cycles", src);
    }
  }

  // fleet/coord wire protocol.
  {
    FleetWorkerJob job;
    job.spec = FleetSpec(Workload::kFleetCoord, seed, false);
    job.shard_size = kShardSize;
    m.Put("coord.job_roundtrip_us", 1e6 * PerCall(each, [&] {
            std::istringstream in(EncodeFleetJob(job));
            Keep(ParseFleetJob(in).shard_size);
          }),
          "us", src);
    const ShardPlan plan = BuildShardPlan(
        FleetSpec(Workload::kFleetCoord, seed, true), kShardSize);
    const std::string payload = RunFleetShards(plan, {0}).Serialize();
    m.Put("coord.checksum_ns_per_byte",
          1e9 * PerCall(each, [&] { Keep(FleetFrameChecksum(payload)); }) /
              static_cast<double>(payload.size()),
          "ns", src);
  }

  // trace: the selective-persistence policy alone, on one node's events.
  {
    std::vector<TraceEvent> events;
    Wcma wcma(FleetDesign(PredictorKind::kWcma).wcma, kSlotsPerDay);
    SimulateNodeKernel(wcma, series, config, CollectProbe{&events});
    std::vector<TraceRecord> records;
    std::vector<TraceDayRecord> days;
    const double per_node = PerCall(each, [&] {
      records.clear();
      days.clear();
      ApplyTracePolicy(events, kSlotsPerDay, TracePolicyConfig{}, records,
                       days);
      Keep(records.size());
    });
    m.Put("telemetry.policy_ns_per_event",
          1e9 * per_node / static_cast<double>(events.size()), "ns", src);
  }

  // common: one empty ParallelFor batch on a pool of the bench's size.
  {
    ThreadPool pool(BenchThreads());
    m.Put("common.pool_dispatch_us", 1e6 * PerCall(each, [&] {
            ParallelFor(&pool, pool.thread_count(), [](std::size_t) {});
          }),
          "us", src);
  }

  // solar synthesis and timeseries slotting, per lane-day.
  {
    SynthOptions lane;
    lane.days = 30;
    lane.seed_offset = seed;
    SynthScratch scratch;
    const SiteProfile& site = SiteByCode("ORNL");
    m.Put("solar.synth_ns_per_lane_day", 1e9 * PerCall(each, [&] {
            Keep(SynthesizeTrace(site, lane, scratch).size());
          }) / static_cast<double>(lane.days),
          "ns", src);
    const PowerTrace lane_trace = SynthesizeTrace(site, lane, scratch);
    m.Put("timeseries.slot_ns_per_lane_day", 1e9 * PerCall(each, [&] {
            Keep(SlotSeries(lane_trace, kSlotsPerDay).size());
          }) / static_cast<double>(lane.days),
          "ns", src);
  }

  // sweep stages (bench_sweep's points) on a 60-day ORNL context at N=48.
  {
    SynthOptions sweep_synth;
    sweep_synth.days = 60;
    sweep_synth.seed_offset = seed;
    const SweepContext context(SynthesizeTrace(SiteByCode("ORNL"), sweep_synth),
                               kSlotsPerDay);
    for (const int d : {2, 10, 20}) {
      const double s =
          PerCall(each, [&] { Keep(context.BuildD(d).eta.size()); });
      m.Put("sweep.build_d.d" + std::to_string(d) + "_us", 1e6 * s, "us", src);
    }
    const auto d20 = context.BuildD(20);
    for (int k = 1; k <= 6; ++k) {
      const double s =
          PerCall(each, [&] { Keep(context.BuildQ(d20, k).size()); });
      m.Put("sweep.build_q.k" + std::to_string(k) + "_us", 1e6 * s, "us", src);
    }
    const auto q3 = context.BuildQ(d20, 3);
    m.Put("sweep.score_alpha_us", 1e6 * PerCall(each, [&] {
            Keep(context.Score(q3, 0.7).mean.mape);
          }),
          "us", src);
  }
}

}  // namespace

std::string RunLayerPass(Workload workload, std::uint64_t seed, bool tiny,
                         double budget_s, const std::string& spans_path,
                         std::uint64_t* failures) {
  const double start = NowSeconds();
  SpanLog log(true);
  Metrics metrics;
  *failures = 0;

  // 1. The workload's own pipeline, one stage at a time, spans on.
  const double replay_t0 = NowSeconds();
  const ReplayResult replay =
      Replay(workload, seed, tiny, log, &metrics, "workload", true);
  const double replay_s = NowSeconds() - replay_t0;
  const std::size_t replay_spans = log.size();

  // 2. Spans-off repetitions (in-process; each clears the clear-sky memo)
  //    relate the serial stage sum to wall time and re-check the digest.
  auto spans_off = [&](Workload w, bool w_tiny, std::uint64_t reference,
                       const std::string& source, double serial_stage_s) {
    std::vector<double> walls;
    RepResult rep;
    for (int i = 0; i < 2; ++i) {
      rep = RunRep(w, seed, w_tiny);
      walls.push_back(rep.wall_s);
      if (rep.digest != reference || rep.failed != 0) ++*failures;
    }
    const double wall = Median(walls);
    const double parallelism = static_cast<double>(WorkloadParallelism(w));
    if (!IsFleet(w)) return wall;
    const double efficiency = serial_stage_s / (parallelism * wall);
    metrics.Put("runner.parallel_efficiency", efficiency, "ratio", source);
    if (w == Workload::kFleetCoord) {
      metrics.Put("coord.efficiency", efficiency, "ratio", source);
      metrics.Put("coord.overhead_s", wall - serial_stage_s / parallelism, "s",
                  source);
      metrics.Put("coord.workers_spawned",
                  static_cast<double>(rep.workers_spawned), "count", source);
      metrics.Put("coord.frames_accepted",
                  static_cast<double>(rep.frames_accepted), "count", source);
      metrics.Put("coord.shards_reassigned",
                  static_cast<double>(rep.shards_reassigned), "count", source);
      metrics.Put("coord.duplicate_frames",
                  static_cast<double>(rep.duplicate_frames), "count", source);
      metrics.Put("coord.corrupt_frames",
                  static_cast<double>(rep.corrupt_frames), "count", source);
    }
    if (w == Workload::kFleetFaultedTraced && rep.trace_dropped != 0) {
      ++*failures;
    }
    return wall;
  };
  const double wall_s = spans_off(workload, tiny, replay.digest, "workload",
                                  replay.serial_stage_s);

  // 3. Stages this workload never runs are measured on the tiny shape of
  //    the workload that owns them, so every metric exists on every pass;
  //    the record marks them "stand-in:<owner>-tiny".
  std::vector<Workload> owners;
  if (workload == Workload::kPaperSweep) owners.push_back(Workload::kFleetMix);
  for (const Workload owner : {Workload::kFleetCoord,
                               Workload::kFleetFaultedTraced,
                               Workload::kPaperSweep}) {
    if (owner != workload) owners.push_back(owner);
  }
  const std::uint32_t stand_ins = log.Open("stand_in", "perfbench");
  for (const Workload owner : owners) {
    const std::string source =
        std::string("stand-in:") + WorkloadName(owner) + "-tiny";
    const ReplayResult r =
        Replay(owner, seed, true, log, &metrics, source, true);
    spans_off(owner, true, r.digest, source, r.serial_stage_s);
  }
  log.Close(stand_ins);

  // 4. Micro-costs with what is left of the budget.
  const double span_cost = [] {
    SpanLog scratch(true);
    return PerCall(0.02, [&] { scratch.Close(scratch.Open("x", "y")); });
  }();
  MicroSuite(seed, std::max(1.0, budget_s - (NowSeconds() - start)), metrics);
  metrics.Put("pass.span_overhead_pct",
              100.0 * static_cast<double>(replay_spans) * span_cost / replay_s,
              "%", "workload");

  std::ofstream out(spans_path);
  out << log.ToJson();
  if (!out) throw std::runtime_error("cannot write spans to " + spans_path);

  return Json()
      .Str("digest", Hex64(replay.digest))
      .Raw("shape", replay.shape.ToJson())
      .Num("replay_s", replay_s)
      .Num("spans_off_wall_s", wall_s)
      .Int("replay_spans", replay_spans)
      .Str("spans_file", spans_path)
      .Int("failures", *failures)
      .Raw("metrics", metrics.ToJson())
      .str();
}

}  // namespace perfbench
