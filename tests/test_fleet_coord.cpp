// Tests for the multi-process fleet coordinator (fleet/coord.hpp): the
// wire protocol (job + frame serde), the ScenarioSpec text form that
// carries campaigns across the process boundary, and — against the real
// shep_fleet_worker binary — the acceptance pins: a 4-worker campaign
// merges bit-identical to single-process RunFleet, and stays bit-identical
// when workers are SIGKILLed, die mid-campaign, stream corrupt frames, or
// spin inside a shard (every fault path ends in reassignment), and when
// every frame arrives over several pipe reads.
#include "fleet/coord.hpp"

#include <gtest/gtest.h>

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fleet/runner.hpp"
#include "fleet/shard_plan.hpp"
#include "trace/sink.hpp"
#include "trace/trace_file.hpp"

namespace shep {
namespace {

/// Small but structurally rich: 2 sites x 3 predictors (one costed
/// backend) x 2 tiers x 2 replicas = 24 nodes -> 8 shards of 3, so a
/// 4-worker run has real dispatch traffic and faults leave work to
/// reassign.
ScenarioSpec CoordSpec() {
  ScenarioSpec spec;
  spec.name = "coordinated";
  spec.sites = {"HSU", "PFCI"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.days = 8;
  PredictorSpec fixed = wcma;
  fixed.kind = PredictorKind::kWcmaFixed;
  PredictorSpec persistence;
  persistence.kind = PredictorKind::kPersistence;
  spec.predictors = {wcma, fixed, persistence};
  spec.storage_tiers_j = {1500.0, 6000.0};
  spec.nodes_per_cell = 2;
  spec.days = 20;
  spec.slots_per_day = 48;
  spec.seed = 91;
  spec.node.warmup_days = 10;
  spec.initial_level_jitter = 0.15;
  return spec;
}

constexpr std::size_t kShardSize = 3;

void ExpectSummaryBitIdentical(const FleetSummary& a, const FleetSummary& b) {
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].violation_rate.mean, b.stats[i].violation_rate.mean);
    EXPECT_EQ(a.stats[i].violation_rate.m2, b.stats[i].violation_rate.m2);
    EXPECT_EQ(a.stats[i].min_soc.min, b.stats[i].min_soc.min);
    EXPECT_EQ(a.stats[i].violations, b.stats[i].violations);
    EXPECT_EQ(a.stats[i].scored_slots, b.stats[i].scored_slots);
  }
  EXPECT_EQ(a.ToTable(), b.ToTable());
  EXPECT_EQ(a.ToCsv(), b.ToCsv());
}

const FleetSummary& Monolithic() {
  static const FleetSummary summary = [] {
    FleetRunOptions options;
    options.shard_size = kShardSize;
    return RunFleet(CoordSpec(), options);
  }();
  return summary;
}

FleetCoordOptions BaseOptions() {
  FleetCoordOptions options;
#ifdef SHEP_FLEET_WORKER_PATH
  options.worker_path = SHEP_FLEET_WORKER_PATH;
#endif
  options.workers = 4;
  options.shard_size = kShardSize;
  options.heartbeat_ms = 25;
  options.liveness_timeout_ms = 5000;
  return options;
}

/// Runs `spec` in-process, serially, and reports the wall time per node
/// (its share of lane synthesis included): what one heartbeat gap of a
/// busy worker costs on this host, in this build, under this load.
FleetSummary TimedRunFleet(const ScenarioSpec& spec, std::size_t shard_size,
                           double* node_ms) {
  FleetRunOptions options;
  options.shard_size = shard_size;
  const auto start = std::chrono::steady_clock::now();
  FleetSummary summary = RunFleet(spec, options);
  *node_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count() /
             static_cast<double>(spec.node_count());
  return summary;
}

/// A liveness deadline a busy worker always meets: heartbeat_ms plus 64
/// measured nodes, and never below `floor_ms`.  A sanitizer build or an
/// oversubscribed host stretches every node, and the deadline stretches
/// with it instead of staying a constant tuned on a quiet Release host.
std::uint32_t LivenessDeadlineMs(std::uint32_t heartbeat_ms, double node_ms,
                                 std::uint32_t floor_ms) {
  return std::max(floor_ms, heartbeat_ms + static_cast<std::uint32_t>(
                                               std::ceil(64.0 * node_ms)));
}

#ifndef SHEP_FLEET_WORKER_PATH
#define SHEP_SKIP_WITHOUT_WORKER() \
  GTEST_SKIP() << "built without SHEP_FLEET_WORKER_PATH"
#else
#define SHEP_SKIP_WITHOUT_WORKER() (void)0
#endif

// ---- ScenarioSpec serde --------------------------------------------------

/// A spec using every predictor kind and every parameter block, so the
/// round trip covers the whole wire format.
ScenarioSpec EverythingSpec() {
  ScenarioSpec spec = CoordSpec();
  spec.predictors.clear();
  for (PredictorKind kind :
       {PredictorKind::kWcma, PredictorKind::kWcmaFixed,
        PredictorKind::kWcmaVm, PredictorKind::kEwma, PredictorKind::kAr,
        PredictorKind::kAdaptiveWcma, PredictorKind::kPersistence,
        PredictorKind::kPreviousDay}) {
    PredictorSpec p;
    p.kind = kind;
    p.wcma.alpha = 0.7;
    p.wcma.days = 6;
    p.ewma_weight = 0.37;
    p.ar.order = 3;
    p.ar.days = 9;
    p.ar.lambda = 0.93;
    p.ar.delta = 123.5;
    p.adaptive.alphas = {0.25, 0.5, 0.9};
    p.adaptive.ks = {1, 2, 4};
    p.adaptive.days = 7;
    p.adaptive.discount = 0.8;
    spec.predictors.push_back(p);
  }
  spec.node.storage.charge_efficiency = 0.87;
  spec.node.initial_level_fraction = 0.42;
  return spec;
}

TEST(ScenarioSpecSerde, RoundTripIsExactAndPreservesThePlan) {
  const ScenarioSpec spec = EverythingSpec();
  const std::string text = spec.Describe();
  const ScenarioSpec parsed = ParseScenarioSpec(text);

  // The text form is a fixed point: re-describing reproduces every byte.
  EXPECT_EQ(parsed.Describe(), text);

  // The decisive equality: the rebuilt spec expands to the identical plan
  // (the fingerprint folds in every result-relevant field).
  EXPECT_EQ(BuildShardPlan(parsed, kShardSize).fingerprint,
            BuildShardPlan(spec, kShardSize).fingerprint);
}

TEST(ScenarioSpecSerde, RejectsMalformedText) {
  EXPECT_THROW(ParseScenarioSpec(""), std::invalid_argument);
  EXPECT_THROW(ParseScenarioSpec("not a scenario"), std::invalid_argument);
  std::string text = CoordSpec().Describe();
  EXPECT_THROW(ParseScenarioSpec(text.substr(0, text.size() / 2)),
               std::invalid_argument);
  // An unknown predictor kind name must not default to anything.
  std::string renamed = text;
  renamed.replace(renamed.find("WCMA"), 4, "WCMB");
  EXPECT_THROW(ParseScenarioSpec(renamed), std::invalid_argument);
  // Only an expandable spec serializes (empty sites fails validation).
  ScenarioSpec invalid = CoordSpec();
  invalid.sites.clear();
  EXPECT_THROW(invalid.Describe(), std::invalid_argument);
  EXPECT_THROW([] {
    ScenarioSpec spaced = CoordSpec();
    spaced.name = "two words";
    return spaced.Describe();
  }(), std::invalid_argument);
  EXPECT_EQ(PredictorKindFromName("EWMA"), PredictorKind::kEwma);
  EXPECT_THROW(PredictorKindFromName("nope"), std::invalid_argument);
}

/// `text` with the token `offset` places after the first `keyword` (which
/// includes its leading separator, e.g. " ar" or "\nshape") raised by 2^32:
/// the value a parser that narrows a u64 without a range check wraps back
/// to the original.
std::string WrapTokenAfter(std::string text, const std::string& keyword,
                           std::size_t offset) {
  const std::size_t at = text.find(keyword + ' ');
  EXPECT_NE(at, std::string::npos) << keyword;
  std::size_t pos = at + keyword.size() + 1;  // token 1
  for (std::size_t i = 1; i < offset; ++i) {
    pos = text.find_first_of(" \n", pos) + 1;
  }
  const std::size_t end = text.find_first_of(" \n", pos);
  const std::uint64_t value = std::stoull(text.substr(pos, end - pos));
  return text.replace(pos, end - pos, std::to_string(value + (1ull << 32)));
}

TEST(ScenarioSpecSerde, RejectsIntegersThatDoNotFitTheirField) {
  // Every int field of the text form, by (keyword, token offset).  The
  // first predictor line is WCMA with adaptive alphas {0.25, 0.5, 0.9},
  // ks {1, 2, 4} and days 7.
  const std::string text = EverythingSpec().Describe();
  const std::vector<std::pair<std::string, std::size_t>> fields = {
      {"\nshape", 2},    // slots_per_day
      {" wcma", 2},      // wcma.days
      {" wcma", 3},      // wcma.slots_k
      {" ar", 1},        // ar.order
      {" ar", 2},        // ar.days
      {" adaptive", 6},  // adaptive.ks[0]
      {" adaptive", 9},  // adaptive.days
  };
  for (const auto& [keyword, offset] : fields) {
    const std::string wrapped = WrapTokenAfter(text, keyword, offset);
    ASSERT_NE(wrapped, text);
    EXPECT_THROW(ParseScenarioSpec(wrapped), std::invalid_argument)
        << keyword << " +" << offset;
  }
}

// ---- Wire protocol -------------------------------------------------------

TEST(FleetProtocol, JobRoundTripsAndFramesChecksum) {
  FleetWorkerJob job;
  job.spec = EverythingSpec();
  job.shard_size = 5;
  job.heartbeat_ms = 75;
  job.fingerprint = 0xDEADBEEFull;
  job.trace_dir = "/tmp/trace dir with spaces";

  std::istringstream in(EncodeFleetJob(job));
  const FleetWorkerJob parsed = ParseFleetJob(in);
  EXPECT_EQ(parsed.spec.Describe(), job.spec.Describe());
  EXPECT_EQ(parsed.shard_size, 5u);
  EXPECT_EQ(parsed.heartbeat_ms, 75u);
  EXPECT_EQ(parsed.fingerprint, 0xDEADBEEFull);
  EXPECT_EQ(parsed.trace_dir, job.trace_dir);

  // No trace dir travels as "-" and comes back empty.
  job.trace_dir.clear();
  std::istringstream in2(EncodeFleetJob(job));
  EXPECT_TRUE(ParseFleetJob(in2).trace_dir.empty());

  std::istringstream garbage("shep-fleet-job v1\n");
  EXPECT_THROW(ParseFleetJob(garbage), std::invalid_argument);
  std::istringstream truncated(
      EncodeFleetJob(job).substr(0, 120));
  EXPECT_THROW(ParseFleetJob(truncated), std::invalid_argument);

  // Frame: header names the shard, the byte count, and an FNV-1a 64 that
  // actually covers the payload.
  const std::string payload = "shep-fleet-partial payload\n";
  const std::string frame = EncodeFleetFrame(7, payload);
  std::istringstream fin(frame);
  std::string word;
  std::uint64_t shard = 0, bytes = 0, checksum = 0;
  fin >> word >> shard >> bytes >> checksum;
  EXPECT_EQ(word, "frame");
  EXPECT_EQ(shard, 7u);
  EXPECT_EQ(bytes, payload.size());
  EXPECT_EQ(checksum, FleetFrameChecksum(payload));
  EXPECT_NE(FleetFrameChecksum(payload), FleetFrameChecksum("x" + payload));
  EXPECT_NE(frame.find("end-frame\n"), std::string::npos);
}

// ---- The real multi-process runtime --------------------------------------

TEST(RunFleetCoordinated, FourWorkersMatchSingleProcessBitIdentically) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(CoordSpec(), BaseOptions(), &stats);
  ExpectSummaryBitIdentical(summary, Monolithic());

  const ShardPlan plan = BuildShardPlan(CoordSpec(), kShardSize);
  EXPECT_EQ(stats.frames_accepted, plan.shards.size());
  EXPECT_EQ(stats.workers_spawned, 4u);
  EXPECT_EQ(stats.workers_died, 0u);
  EXPECT_EQ(stats.corrupt_frames, 0u);
  EXPECT_EQ(stats.shards_reassigned, 0u);
}

TEST(RunFleetCoordinated, FaultedCampaignMergesBitIdentically) {
  SHEP_SKIP_WITHOUT_WORKER();
  // The fault spec travels inside the scenario's v2 text form, so every
  // worker rebuilds the same per-node fault schedules and the coordinated
  // merge must reproduce the monolithic faulted run bit for bit —
  // including the graceful-degradation columns that only faulted runs
  // render.
  ScenarioSpec spec = CoordSpec();
  spec.name = "coordinated_faulted";
  spec.faults.outage_rate_per_day = 0.3;
  spec.faults.outage_mean_slots = 6.0;
  spec.faults.dropout_rate_per_day = 0.5;
  spec.faults.dropout_mean_slots = 4.0;
  spec.faults.panel_decay_per_day = 0.001;
  spec.faults.battery_aging_per_day = 0.002;

  FleetRunOptions mono_options;
  mono_options.shard_size = kShardSize;
  const FleetSummary mono = RunFleet(spec, mono_options);

  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(spec, BaseOptions(), &stats);
  ExpectSummaryBitIdentical(summary, mono);
  for (const CellAccumulator& cell : summary.stats) {
    EXPECT_TRUE(cell.has_fault_stats());
  }
  EXPECT_NE(summary.ToCsv().find("availability"), std::string::npos);
  // Under CI load a slow worker can trip a deadline and be respawned —
  // that must never cost bit-identity, so only the floor is pinned.
  EXPECT_GE(stats.workers_spawned, 4u);
  EXPECT_EQ(stats.corrupt_frames, 0u);
}

TEST(RunFleetCoordinated, SurvivesASigkilledWorker) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordOptions options = BaseOptions();
  // The acceptance pin: a real SIGKILL, before the victim contributes
  // anything, forces respawn + (possibly) reassignment.
  options.on_spawn = [](std::size_t spawn, long pid) {
    if (spawn == 0) kill(static_cast<pid_t>(pid), SIGKILL);
  };
  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(CoordSpec(), options, &stats);
  ExpectSummaryBitIdentical(summary, Monolithic());
  EXPECT_GE(stats.workers_died, 1u);
  EXPECT_GE(stats.respawns, 1u);
}

TEST(RunFleetCoordinated, SurvivesWorkersDyingMidCampaign) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordOptions options = BaseOptions();
  // EVERY spawn (replacements included) exits abruptly after one valid
  // frame; the campaign only finishes through repeated reassignment.
  options.worker_args = {"--die-after-frames", "1"};
  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(CoordSpec(), options, &stats);
  ExpectSummaryBitIdentical(summary, Monolithic());
  EXPECT_GE(stats.workers_died, 1u);
  EXPECT_GE(stats.shards_reassigned, 1u);
  EXPECT_GE(stats.respawns, 1u);
}

TEST(RunFleetCoordinated, RejectsCorruptFramesAndReassigns) {
  SHEP_SKIP_WITHOUT_WORKER();
  for (const char* flag : {"--corrupt-frame", "--garble-frame"}) {
    FleetCoordOptions options = BaseOptions();
    // Each spawn's SECOND frame lies (bad checksum / unparseable payload
    // behind a valid checksum); the first succeeds so the run progresses.
    options.worker_args = {flag, "2"};
    FleetCoordStats stats;
    const FleetSummary summary =
        RunFleetCoordinated(CoordSpec(), options, &stats);
    ExpectSummaryBitIdentical(summary, Monolithic());
    EXPECT_GE(stats.corrupt_frames, 1u) << flag;
    EXPECT_GE(stats.workers_killed, 1u) << flag;
  }
}

TEST(RunFleetCoordinated, ReapsAWorkerSpinningInsideAShardOnLiveness) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordOptions options = BaseOptions();
  // Every spawn busy-loops inside its second shard and writes nothing, so
  // its heartbeats stop with its progress.  No shard deadline exists: the
  // liveness deadline alone must unstick the run.
  options.worker_args = {"--spin-in-shard", "2"};
  options.heartbeat_ms = 25;
  double node_ms = 0.0;
  (void)TimedRunFleet(CoordSpec(), kShardSize, &node_ms);
  options.liveness_timeout_ms =
      LivenessDeadlineMs(options.heartbeat_ms, node_ms, 250);
  using Clock = std::chrono::steady_clock;
  auto spawned_at = std::make_shared<std::vector<Clock::time_point>>();
  options.on_spawn = [spawned_at](std::size_t, long) {
    spawned_at->push_back(Clock::now());
  };
  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(CoordSpec(), options, &stats);
  ExpectSummaryBitIdentical(summary, Monolithic());
  // Condemned on liveness, so counted as killed, like a silent worker.
  EXPECT_GE(stats.workers_killed, 1u);
  EXPECT_GE(stats.shards_reassigned, 1u);
  // The first replacement follows the liveness deadline, far inside the
  // 120 s that a per-shard deadline defaulted to.
  ASSERT_GT(spawned_at->size(), options.workers);
  const auto first_replacement =
      (*spawned_at)[options.workers] - spawned_at->front();
  EXPECT_GE(first_replacement,
            std::chrono::milliseconds(options.liveness_timeout_ms));
  EXPECT_LT(first_replacement, std::chrono::seconds(20));
}

TEST(RunFleetCoordinated, ThrowsWhenTheWorkerBinaryIsMissing) {
  FleetCoordOptions options = BaseOptions();
  options.worker_path = "/does/not/exist";
  EXPECT_THROW(RunFleetCoordinated(CoordSpec(), options),
               std::runtime_error);
}

TEST(RunFleetCoordinated, CondemnsAWorkerStreamingAnEndlessLine) {
  FleetCoordOptions options = BaseOptions();
  // A "worker" that streams zero bytes and never a newline.  The liveness
  // deadline is out of reach, so only the line cap can end the run.
  options.worker_path = "/bin/sh";
  options.worker_args = {"-c", "exec cat /dev/zero"};
  options.workers = 2;
  options.max_respawns = 2;
  options.liveness_timeout_ms = 60000;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(RunFleetCoordinated(CoordSpec(), options),
               std::runtime_error);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(20));
}

TEST(RunFleetCoordinated, ReapsASilentWorkerAtTheLivenessDeadline) {
  FleetCoordOptions options = BaseOptions();
  // A "worker" that never writes a byte: the liveness deadline, running
  // from its first dispatch, condemns it.
  options.worker_path = "/bin/sh";
  options.worker_args = {"-c", "exec sleep 60"};
  options.workers = 1;
  options.max_respawns = 2;
  options.liveness_timeout_ms = 250;
  auto spawns = std::make_shared<std::size_t>(0);
  options.on_spawn = [spawns](std::size_t, long) { ++*spawns; };
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(RunFleetCoordinated(CoordSpec(), options),
               std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // The first spawn and both replacements each stay silent past the
  // deadline before they are reaped.
  EXPECT_EQ(*spawns, 3u);
  EXPECT_GE(elapsed, 3 * std::chrono::milliseconds(250));
  EXPECT_LT(elapsed, std::chrono::seconds(20));
}

/// One shard of 512 WCMA nodes, each on its own 4-day weather lane: one
/// worker runs the whole campaign while three owe nothing.  A lane or a
/// node takes under a millisecond (about 12 ms in a TSan build), and the
/// test sizes its liveness deadline from the measured node time — 64
/// nodes, so the busy worker's heartbeats stay well inside it, while the
/// 512-node shard as a whole outlasts it in any build.
ScenarioSpec OneShardSpec() {
  ScenarioSpec spec;
  spec.name = "one_shard";
  spec.sites = {"HSU"};
  PredictorSpec wcma;
  wcma.kind = PredictorKind::kWcma;
  wcma.wcma.days = 2;
  spec.predictors = {wcma};
  spec.storage_tiers_j = {3000.0};
  spec.nodes_per_cell = 512;
  spec.days = 4;
  spec.slots_per_day = 288;
  spec.seed = 17;
  spec.node.warmup_days = 2;
  return spec;
}

TEST(RunFleetCoordinated, NeverReapsAnIdleWorkerForSilence) {
  SHEP_SKIP_WITHOUT_WORKER();
  const ScenarioSpec spec = OneShardSpec();
  FleetCoordOptions options = BaseOptions();
  options.shard_size = spec.nodes_per_cell;
  options.heartbeat_ms = 25;
  double node_ms = 0.0;
  const FleetSummary monolithic =
      TimedRunFleet(spec, options.shard_size, &node_ms);
  options.liveness_timeout_ms =
      LivenessDeadlineMs(options.heartbeat_ms, node_ms, 100);
  FleetCoordStats stats;
  const FleetSummary summary = RunFleetCoordinated(spec, options, &stats);
  ExpectSummaryBitIdentical(summary, monolithic);
  EXPECT_EQ(stats.workers_spawned, options.workers);
  EXPECT_EQ(stats.workers_killed, 0u);
  EXPECT_EQ(stats.respawns, 0u);
  // The idle workers stayed silent for longer than the deadline.
  EXPECT_GT(stats.worker_synth_seconds + stats.worker_sim_seconds,
            options.liveness_timeout_ms / 1000.0);
}

TEST(RunFleetCoordinated, ThrowsWhenEveryWorkerIsUnusable) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordOptions options = BaseOptions();
  options.workers = 2;
  options.max_respawns = 2;
  options.worker_args = {"--not-a-flag"};  // every spawn errors out at once.
  EXPECT_THROW(RunFleetCoordinated(CoordSpec(), options),
               std::runtime_error);
}

TEST(RunFleetCoordinated, ValidatesItsConfiguration) {
  FleetCoordOptions no_path;
  EXPECT_THROW(RunFleetCoordinated(CoordSpec(), no_path),
               std::invalid_argument);
  FleetCoordOptions zero_workers = BaseOptions();
  zero_workers.worker_path = "/does/not/matter";
  zero_workers.workers = 0;
  EXPECT_THROW(RunFleetCoordinated(CoordSpec(), zero_workers),
               std::invalid_argument);
  FleetCoordOptions zero_heartbeat = BaseOptions();
  zero_heartbeat.worker_path = "/does/not/matter";
  zero_heartbeat.heartbeat_ms = 0;
  EXPECT_THROW(RunFleetCoordinated(CoordSpec(), zero_heartbeat),
               std::invalid_argument);
  // A deadline no longer than the heartbeat would reap a healthy worker
  // that only heartbeats.
  FleetCoordOptions short_deadline = BaseOptions();
  short_deadline.worker_path = "/does/not/matter";
  short_deadline.liveness_timeout_ms = short_deadline.heartbeat_ms;
  EXPECT_THROW(RunFleetCoordinated(CoordSpec(), short_deadline),
               std::invalid_argument);
}

TEST(FleetProtocol, JobRejectsAnOversizedSpecByteCount) {
  FleetWorkerJob job;
  job.spec = CoordSpec();
  const std::string text = EncodeFleetJob(job);
  const std::size_t at = text.find("\nspec ") + 6;
  const std::string count = text.substr(at, text.find('\n', at) - at);
  // A byte count no allocation could satisfy must be refused up front,
  // never handed to the string constructor.
  for (const char* huge : {"18446744073709551615", "4294967296", "1048577"}) {
    std::string garbled = text;
    garbled.replace(at, count.size(), huge);
    std::istringstream in(garbled);
    EXPECT_THROW(ParseFleetJob(in), std::invalid_argument) << huge;
  }
}

TEST(FleetProtocol, JobRejectsAnOutOfRangeOrZeroHeartbeat) {
  FleetWorkerJob job;
  job.spec = CoordSpec();
  job.heartbeat_ms = 100;
  const std::string text = EncodeFleetJob(job);
  std::istringstream wrapped(WrapTokenAfter(text, "\nheartbeat-ms", 1));
  EXPECT_THROW(ParseFleetJob(wrapped), std::invalid_argument);
  // The period comes from outside the process, so zero is refused like any
  // other out-of-range field, though it would only mean "heartbeat at
  // every progress point".
  std::string zero = text;
  zero.replace(zero.find("heartbeat-ms 100"), 16, "heartbeat-ms 0");
  std::istringstream zero_in(zero);
  EXPECT_THROW(ParseFleetJob(zero_in), std::invalid_argument);
}

TEST(RunFleetCoordinated, GarbledFrameHeaderCondemnsTheWorker) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordOptions options = BaseOptions();
  // Each spawn's SECOND frame header announces 2^64-1 payload bytes.  The
  // reader must count a corrupt frame and condemn the worker instead of
  // trying to buffer what the header claims.
  options.worker_args = {"--garble-header", "2"};
  FleetCoordStats stats;
  const FleetSummary summary =
      RunFleetCoordinated(CoordSpec(), options, &stats);
  ExpectSummaryBitIdentical(summary, Monolithic());
  EXPECT_GE(stats.corrupt_frames, 1u);
  EXPECT_GE(stats.workers_killed, 1u);
}

// ---- Lane-affinity dispatch ----------------------------------------------

/// 2 sites x 3 predictors x 1 tier x 32 replicas in shards of 2: every
/// shard reads the 2 lanes of one (site, replica pair), so the plan has
/// 32 groups of 3 shards over 64 lanes.
ScenarioSpec AffinitySpec() {
  ScenarioSpec spec = CoordSpec();
  spec.name = "affinity";
  spec.storage_tiers_j = {3000.0};
  spec.nodes_per_cell = 32;
  return spec;
}

constexpr std::size_t kAffinityShardSize = 2;

FleetSummary MonolithicOf(const ScenarioSpec& spec, std::size_t shard_size) {
  FleetRunOptions options;
  options.shard_size = shard_size;
  return RunFleet(spec, options);
}

TEST(RunFleetCoordinated, KeepsLaneGroupsOnOneWorker) {
  SHEP_SKIP_WITHOUT_WORKER();
  const ScenarioSpec spec = AffinitySpec();
  const ShardPlan plan = BuildShardPlan(spec, kAffinityShardSize);
  FleetCoordOptions options = BaseOptions();
  options.shard_size = kAffinityShardSize;
  FleetCoordStats stats;
  const FleetSummary summary = RunFleetCoordinated(spec, options, &stats);
  ExpectSummaryBitIdentical(summary,
                            MonolithicOf(spec, kAffinityShardSize));

  // Claims never share a group; only tail steals re-read lanes.  When the
  // last group is claimed each worker has at most 2 of its newest group's
  // 3 shards pending, so at most 8 steals of 2 lanes each can happen.
  EXPECT_GE(stats.lanes_synthesized, plan.lanes.size());
  EXPECT_LE(stats.lanes_synthesized * 4, plan.lanes.size() * 5);
  EXPECT_EQ(stats.frames_accepted, plan.shards.size());
  EXPECT_EQ(stats.shards_reassigned, 0u);
  EXPECT_GT(stats.worker_synth_seconds, 0.0);
  EXPECT_GT(stats.worker_sim_seconds, 0.0);
}

TEST(RunFleetCoordinated, OneWorkerSynthesizesEveryLaneOnce) {
  SHEP_SKIP_WITHOUT_WORKER();
  const ScenarioSpec spec = AffinitySpec();
  const ShardPlan plan = BuildShardPlan(spec, kAffinityShardSize);
  FleetCoordOptions options = BaseOptions();
  options.workers = 1;
  options.shard_size = kAffinityShardSize;
  FleetCoordStats stats;
  const FleetSummary summary = RunFleetCoordinated(spec, options, &stats);
  ExpectSummaryBitIdentical(summary,
                            MonolithicOf(spec, kAffinityShardSize));
  EXPECT_EQ(stats.lanes_synthesized, plan.lanes.size());
}

/// CoordSpec on three storage tiers in shards of 2: each shard holds one
/// tier's two replicas, so a (lane, design) pair's three readers sit in
/// three different shards of one lane group and only a forecast memo kept
/// across the worker's jobs can share them.
ScenarioSpec TieredSpec() {
  ScenarioSpec spec = CoordSpec();
  spec.name = "tiered";
  spec.storage_tiers_j = {1500.0, 4000.0, 12000.0};
  return spec;
}

constexpr std::size_t kTieredShardSize = 2;

TEST(RunFleetCoordinated, OneWorkerRecordsEachForecastOnce) {
  SHEP_SKIP_WITHOUT_WORKER();
  FleetCoordOptions options = BaseOptions();
  options.workers = 1;
  options.shard_size = kTieredShardSize;
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "faulted" : "healthy");
    ScenarioSpec spec = TieredSpec();
    if (faulted) {
      spec.faults.outage_rate_per_day = 0.3;
      spec.faults.outage_mean_slots = 6.0;
      spec.faults.dropout_rate_per_day = 0.5;
      spec.faults.dropout_mean_slots = 4.0;
    }
    const ShardPlan plan = BuildShardPlan(spec, kTieredShardSize);
    FleetCoordStats stats;
    const FleetSummary summary = RunFleetCoordinated(spec, options, &stats);
    ExpectSummaryBitIdentical(summary, MonolithicOf(spec, kTieredShardSize));
    EXPECT_EQ(stats.frames_accepted, plan.shards.size());
    // Healthy: one pass per (lane, design) pair, 4 x 3 = 12 for 36 nodes.
    // Faulted: every node runs its own predictor.
    EXPECT_EQ(stats.predictor_runs,
              faulted ? plan.matrix.nodes.size()
                      : plan.lanes.size() * spec.predictors.size());
  }
}

TEST(RunFleetCoordinated, ShardsStraddlingCellsMergeBitIdentically) {
  SHEP_SKIP_WITHOUT_WORKER();
  // 5 replicas per cell in shards of 3: shards straddle cells, so lane
  // sets overlap without being equal.
  ScenarioSpec spec = CoordSpec();
  spec.name = "straddling";
  spec.nodes_per_cell = 5;
  const FleetSummary mono = MonolithicOf(spec, kShardSize);
  const ShardPlan plan = BuildShardPlan(spec, kShardSize);
  for (const bool kill_one : {false, true}) {
    FleetCoordOptions options = BaseOptions();
    if (kill_one) {
      options.on_spawn = [](std::size_t spawn, long pid) {
        if (spawn == 2) kill(static_cast<pid_t>(pid), SIGKILL);
      };
    }
    FleetCoordStats stats;
    const FleetSummary summary = RunFleetCoordinated(spec, options, &stats);
    ExpectSummaryBitIdentical(summary, mono);
    EXPECT_EQ(stats.frames_accepted, plan.shards.size()) << kill_one;
    EXPECT_GE(stats.lanes_synthesized, plan.lanes.size()) << kill_one;
    if (kill_one) {
      // A failed dispatch write never condemns the victim: its EOF reaps
      // it as died, and it is replaced.
      EXPECT_GE(stats.workers_died, 1u);
      EXPECT_GE(stats.respawns, 1u);
    }
  }
}

/// Every paper site x 4 predictors x 15 tiers, one node per cell: 360
/// cells in 3 shards of 120, so every shard touches 120 cells and its frame
/// outgrows one 64 KiB pipe buffer.
ScenarioSpec WideSpec() {
  ScenarioSpec spec = CoordSpec();
  spec.name = "wide";
  spec.sites = {"SPMD", "ECSU", "ORNL", "HSU", "NPCS", "PFCI"};
  PredictorSpec ewma;
  ewma.kind = PredictorKind::kEwma;
  spec.predictors.push_back(ewma);
  spec.storage_tiers_j.clear();
  for (int tier = 1; tier <= 15; ++tier) {
    spec.storage_tiers_j.push_back(500.0 * tier);
  }
  spec.nodes_per_cell = 1;
  return spec;
}

constexpr std::size_t kWideShardSize = 120;

TEST(RunFleetCoordinated, FramesSpanningSeveralReadsMergeBitIdentically) {
  SHEP_SKIP_WITHOUT_WORKER();
  const ScenarioSpec spec = WideSpec();
  const ShardPlan plan = BuildShardPlan(spec, kWideShardSize);
  FleetRunOptions run_options;
  run_options.shard_size = kWideShardSize;
  const std::size_t frame_bytes =
      RunFleetShards(plan, {0}, run_options).Serialize().size();
  ASSERT_GT(frame_bytes, std::size_t{1} << 16)
      << "the frame must span more than one pipe buffer";

  const FleetSummary mono = MonolithicOf(spec, kWideShardSize);
  for (const bool kill_one : {false, true}) {
    FleetCoordOptions options = BaseOptions();
    options.shard_size = kWideShardSize;
    if (kill_one) {
      options.on_spawn = [](std::size_t spawn, long pid) {
        if (spawn == 0) kill(static_cast<pid_t>(pid), SIGKILL);
      };
    }
    FleetCoordStats stats;
    const FleetSummary summary = RunFleetCoordinated(spec, options, &stats);
    ExpectSummaryBitIdentical(summary, mono);
    EXPECT_EQ(stats.frames_accepted, plan.shards.size()) << kill_one;
    EXPECT_EQ(stats.corrupt_frames, 0u) << kill_one;
    if (kill_one) {
      EXPECT_GE(stats.workers_died, 1u);
    }
  }
}

TEST(RunFleetCoordinated, TracedRunLeavesTheSingleProcessFileSet) {
  SHEP_SKIP_WITHOUT_WORKER();
  namespace fs = std::filesystem;
  const fs::path root =
      fs::path(testing::TempDir()) / "shep_coord_trace_test";
  fs::remove_all(root);
  const fs::path mono_dir = root / "mono";
  const fs::path coord_dir = root / "coord";

  // Single-process traced reference, run shard-at-a-time — the workers'
  // exact cadence.  A trace file is a pure function of its shard, so the
  // coordinated files must match it byte for byte.
  const ScenarioSpec spec = CoordSpec();
  const ShardPlan plan = BuildShardPlan(spec, kShardSize);
  TraceSinkOptions sink_options;
  sink_options.directory = mono_dir.string();
  TraceSink sink(sink_options);
  FleetRunOptions mono_options;
  mono_options.shard_size = kShardSize;
  mono_options.trace_sink = &sink;
  std::vector<FleetPartial> mono_partials;
  for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
    mono_partials.push_back(RunFleetShards(plan, {shard}, mono_options));
  }
  const FleetSummary mono = MergeFleetPartials(plan, mono_partials);

  // Coordinated traced run across 4 processes with a worker SIGKILLed:
  // reassignment must not leak duplicate or orphan trace files.
  FleetCoordOptions options = BaseOptions();
  options.trace_dir = coord_dir.string();
  options.on_spawn = [](std::size_t spawn, long pid) {
    if (spawn == 1) kill(static_cast<pid_t>(pid), SIGKILL);
  };
  const FleetSummary coordinated = RunFleetCoordinated(spec, options);
  ExpectSummaryBitIdentical(coordinated, mono);

  // Exactly one file per shard, byte-identical to the single-process one,
  // and no worker-* directories left behind.
  auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  std::size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(coord_dir)) {
    EXPECT_TRUE(entry.is_regular_file())
        << "unexpected directory: " << entry.path();
    ++files;
  }
  EXPECT_EQ(files, plan.shards.size());
  for (std::size_t shard = 0; shard < plan.shards.size(); ++shard) {
    const std::string name =
        TraceShardFile::FileName(plan.fingerprint, shard);
    ASSERT_TRUE(fs::exists(coord_dir / name)) << name;
    EXPECT_EQ(slurp(coord_dir / name), slurp(mono_dir / name)) << name;
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace shep
