// coord.hpp — the multi-process fleet coordinator and its wire protocol.
//
// RunFleetCoordinated turns the serializable pipeline (shard plan →
// per-shard FleetPartial text → plan-order merge) into a real
// multi-process runtime: it spawns N copies of the shep_fleet_worker
// binary (tools/fleet/), hands each the full campaign once over stdin —
// the ScenarioSpec's exact text plus the shard size, so every worker
// rebuilds the IDENTICAL ShardPlan and proves it by echoing the plan
// fingerprint — then dispatches shards ("run <shard>") and streams each
// shard's FleetPartial::Serialize() text back over a pipe, framed and
// checksummed per shard so completed shards survive a worker death.
//
// Dispatch follows lane affinity.  Synthesizing a weather lane costs far
// more than simulating one node on it, and each worker caches every lane
// it synthesizes, so the coordinator groups shards by the set of lanes
// they read.  A worker asking for work drains the groups it already
// serves, then claims an unclaimed group.  Only when nothing else is left,
// and only once it is idle, does it steal from the group with the most
// pending shards, and only if the worker-reported costs say the steal
// pays for the lanes it re-synthesizes.  Each lane is thus synthesized by
// about one worker instead of by every worker.  A group holds every shard
// of its lanes, so every storage tier of a (lane, design) pair lands on the
// same worker too, and the worker's ForecastMemo (fleet/forecast_replay.hpp)
// runs that design's predictor once for all of them.
//
// Control plane vs data plane (the caldera heartbeat/transport split, kept
// on the wire, not in threads): a worker runs on one thread and sends a
// heartbeat line at its progress points, after each weather lane and each
// node, whenever it has written nothing for heartbeat_ms.  A worker stuck
// inside a lane or a node therefore goes silent.  The coordinator, one
// single-threaded event loop, timestamps every byte it reads.  Each pass
// of the loop checks liveness, reaps and replaces dead or condemned
// workers, dispatches, and then poll(2)s the workers' stdout for at most
// 10 ms.  A readable worker gets one read() into its inbox; every complete
// message there is handled at once, and an unfinished tail waits for the
// next read, so an inbox never holds more than max(64 KiB line cap, frame
// header + largest honest payload + trailer).  Silence past the liveness
// deadline while a worker owes a shard (the clock restarts when an idle
// worker is dispatched) means dead or hung: SIGKILL + reap.  A shard is
// in exactly one place: pending in its group, owed by one live worker, or
// accepted.  A reaped worker's owed shards go back to their groups, which
// become unclaimed for the survivors.  A valid frame counts only when its
// sender owes the shard; any other is dropped and counted in
// duplicate_frames.  The coordinator reads only "hb", "error" and frames.
//
// Trace files.  Every worker writes its shard trace files straight into
// the one trace directory; the coordinator never touches them.  A finished
// run leaves a single-process traced run's file set because:
//   1. A shard is dispatched to at most one live worker.  It is requeued
//      only after that worker has been SIGKILLed and reaped.
//   2. A worker finishes a shard's file before it sends the shard's frame.
//      An accepted shard is never dispatched again.
//   3. Every runner of a shard writes the same bytes, and std::ofstream
//      truncates on open.  So a file left half-written by a killed worker
//      is rewritten in full by the shard's next runner.
// A run that throws may leave a partial file set.
//
// The merged summary is bit-identical to single-process RunFleet at any
// worker count and any kill/reassignment schedule (pinned by
// tests/test_fleet_coord.cpp): partials travel as exact hexfloat text and
// the merge folds in plan order regardless of which process computed what.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/aggregate.hpp"
#include "fleet/scenario.hpp"

namespace shep {

// ---- Wire protocol (shared by coordinator and worker binary) -------------

/// Everything a worker needs before its first shard: the campaign itself
/// plus the knobs that must agree with the coordinator's plan.
struct FleetWorkerJob {
  ScenarioSpec spec;
  std::size_t shard_size = 8;
  /// Least time between heartbeats, which go out only at progress points
  /// (after each lane and each node).  The liveness deadline must exceed
  /// this plus the longest gap between progress points: one lane, or one
  /// node plus the recording of its (lane, design) pair when it is the
  /// pair's first reader, about two node times.  A lane or a node is ~35 ms
  /// at 365 days x 288 slots on a 4-vCPU x86 host.
  std::uint32_t heartbeat_ms = 100;
  /// Expected plan fingerprint.  The worker rebuilds the plan from (spec,
  /// shard_size) and refuses the job when its fingerprint disagrees.  The
  /// fingerprint hashes every spec field, the shard size and the lane
  /// seeds, so the check catches coordinator/worker version skew in any
  /// of them before any work runs.
  std::uint64_t fingerprint = 0;
  /// The directory every worker writes into (empty = telemetry off).
  std::string trace_dir;
};

/// Text form of a job, written to the worker's stdin before any command.
/// The spec travels as its exact Describe() text, byte-counted so the
/// reader never guesses where it ends.  Throws std::invalid_argument on a
/// trace directory that would not read back as itself: one holding a
/// newline, or "-", the spelling of telemetry off.
std::string EncodeFleetJob(const FleetWorkerJob& job);

/// Inverse of EncodeFleetJob, read through the job's last newline so the
/// next line is the first command.  Throws std::invalid_argument on
/// input that is not the EncodeFleetJob() text of what it parsed, and on
/// a spec byte count over the 1 MiB cap.  Does NOT verify the
/// fingerprint — the worker does that after rebuilding it.
[[nodiscard]] FleetWorkerJob ParseFleetJob(std::istream& in);

/// FNV-1a 64 over the payload bytes; the frame checksum.
std::uint64_t FleetFrameChecksum(std::string_view payload);

/// One data-plane frame: "frame <shard> <bytes> <checksum>\n" + payload +
/// "end-frame\n".  The payload is the FleetPartial::Serialize() text of
/// exactly that one shard.  The coordinator treats a header that does not
/// parse, names a shard outside the plan, or announces more bytes than any
/// one-shard partial of the plan can need as a corrupt frame.
std::string EncodeFleetFrame(std::size_t shard, const std::string& payload);

// ---- Coordinator ---------------------------------------------------------

struct FleetCoordOptions {
  /// Path to the shep_fleet_worker binary (required).  Tests and tools get
  /// it from the SHEP_FLEET_WORKER_PATH compile definition.
  std::string worker_path;
  std::size_t workers = 4;
  std::size_t shard_size = 8;
  std::uint32_t heartbeat_ms = 100;
  /// No bytes at all for this long from a worker that owes a shard =>
  /// it is killed.  The clock restarts when an idle worker is dispatched.
  /// Must exceed heartbeat_ms (see FleetWorkerJob::heartbeat_ms).
  std::uint32_t liveness_timeout_ms = 5000;
  /// Replacement workers the run may spawn after deaths; when the budget
  /// is exhausted and no live worker remains, the run throws.  0 picks
  /// 2 * workers.
  std::size_t max_respawns = 0;
  /// Trace directory (empty = off), which every worker writes into; see
  /// "Trace files" above.
  std::string trace_dir;
  /// Extra argv entries for every spawned worker; how tests inject
  /// deterministic faults (--die-after-frames, --corrupt-frame, ...).
  std::vector<std::string> worker_args;
  /// Test hook: observes every spawn (spawn id, pid) so a test can
  /// SIGKILL a real worker mid-campaign.
  std::function<void(std::size_t spawn, long pid)> on_spawn;
};

/// What the control loop saw; for logs, tests, and the demo.
struct FleetCoordStats {
  std::size_t workers_spawned = 0;   ///< including replacements.
  std::size_t workers_died = 0;      ///< reaped without being condemned.
  std::size_t workers_killed = 0;    ///< reaped after being condemned.
  std::size_t respawns = 0;
  std::size_t shards_reassigned = 0;
  std::size_t frames_accepted = 0;
  std::size_t duplicate_frames = 0;  ///< valid frames for shards the
                                     ///< sender did not owe; dropped.
  std::size_t corrupt_frames = 0;    ///< bad header, checksum, payload or
                                     ///< an over-long line.
  /// Sum over spawns of the distinct lanes in the shards dispatched to
  /// that spawn: the synthesis the fleet paid for.  The plan's lane count
  /// is the floor, reached by a single worker.
  std::size_t lanes_synthesized = 0;
  /// Worker-reported predictor passes, summed over accepted frames: the
  /// plan's lanes x designs when every worker replays its recordings to
  /// the other storage tiers of a design, the node count for a faulted
  /// spec.  Metadata only; never part of the summary.
  std::size_t predictor_runs = 0;
  /// Worker-reported synthesis and simulation wall time, summed over
  /// accepted frames.  Timing only; never part of the summary.
  double worker_synth_seconds = 0.0;
  double worker_sim_seconds = 0.0;
};

/// Runs the campaign across `options.workers` worker processes and merges
/// the streamed partials; bit-identical to RunFleet(spec) with the same
/// shard_size.  Throws std::runtime_error when the fleet cannot finish
/// (respawn budget exhausted with shards uncovered) and
/// std::invalid_argument on a bad configuration.
FleetSummary RunFleetCoordinated(const ScenarioSpec& spec,
                                 const FleetCoordOptions& options,
                                 FleetCoordStats* stats = nullptr);

}  // namespace shep
