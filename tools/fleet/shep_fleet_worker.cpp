// shep_fleet_worker — the worker end of the multi-process fleet runtime
// (src/fleet/coord.hpp documents the protocol).
//
// The process reads one job from stdin (the campaign's exact ScenarioSpec
// text + shard size), rebuilds the shard plan and proves identity by
// checking its fingerprint against the job's, then serves "run <shard>"
// commands: each shard runs through the ordinary RunFleetShards and goes
// back as one checksummed frame of FleetPartial::Serialize() text.  A
// heartbeat thread keeps a line flowing so the coordinator can tell a
// busy worker from a dead one.
//
// Fault-injection flags (used by tests/test_fleet_coord.cpp and the
// chaos mode of fleet_distributed_demo to exercise the coordinator's
// reassignment paths deterministically):
//   --die-after-frames N   exit(9) right after the Nth valid frame.
//   --corrupt-frame N      Nth frame: payload garbled AFTER the checksum
//                          is computed (framing lies — checksum fails).
//   --garble-frame N       Nth frame: payload garbled BEFORE the checksum
//                          (framing honest — FleetPartial::Parse fails).
//   --garble-header N      Nth frame: header announces an absurd byte count
//                          (the frame lies before its payload is read).
//   --hang-after-frames N  after N frames, heartbeat forever but answer
//                          nothing (the straggler the shard deadline
//                          exists for).
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "fleet/coord.hpp"
#include "fleet/partial.hpp"
#include "fleet/runner.hpp"
#include "fleet/shard_plan.hpp"
#include "fleet/trace_cache.hpp"
#include "trace/sink.hpp"

namespace {

std::mutex g_out_mutex;

/// Full atomic-enough write to stdout: every message goes out in one
/// locked call so heartbeats never interleave with a frame.
void WriteOut(std::string_view data) {
  // A bounded critical section (one pipe write, no allocation); a stalled
  // pipe parks control and data plane alike and is covered by the
  // coordinator's liveness deadline.
  std::lock_guard<std::mutex> lock(g_out_mutex);
  while (!data.empty()) {
    const ssize_t wrote = ::write(STDOUT_FILENO, data.data(), data.size());
    if (wrote < 0) {
      if (errno == EINTR) continue;
      std::exit(2);  // coordinator gone; nothing sensible left to do.
    }
    data.remove_prefix(static_cast<std::size_t>(wrote));
  }
}

/// Heartbeat thread body: the worker's control plane.  One short line per
/// period, forever — the coordinator times out on silence, so this loop
/// must never park behind the data plane (sleep_for is its pacing; the
/// WriteOut lock is held only for one write).  A worker hung in its data
/// plane must still die as a straggler, not as silent: pinned by
/// KillsHeartbeatingStragglersOnShardDeadline in tests/test_fleet_coord.cpp.
void HeartbeatMain(const std::atomic<bool>& stop, std::uint32_t period_ms) {
  while (!stop.load(std::memory_order_relaxed)) {
    WriteOut("hb\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(period_ms));
  }
}

[[noreturn]] void Fail(const std::string& message) {
  // The error must be one line for the coordinator to relay it.
  std::string one_line = message;
  for (char& c : one_line) {
    if (c == '\n') c = ' ';
  }
  WriteOut("error " + one_line + "\n");
  std::exit(1);
}

struct FaultFlags {
  std::size_t die_after_frames = 0;   ///< 0 = never.
  std::size_t corrupt_frame = 0;      ///< 1-based frame index; 0 = never.
  std::size_t garble_frame = 0;       ///< 1-based frame index; 0 = never.
  std::size_t garble_header = 0;      ///< 1-based frame index; 0 = never.
  std::size_t hang_after_frames = 0;  ///< 0 = never.
};

FaultFlags ParseArgs(int argc, char** argv) {
  FaultFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    const auto value = [&]() -> std::size_t {
      const std::optional<long long> parsed =
          has_value ? shep::ParseInt(argv[i + 1]) : std::nullopt;
      if (!parsed || *parsed < 0) {
        Fail("worker flag " + std::string(arg) +
             " needs a non-negative integer");
      }
      ++i;
      return static_cast<std::size_t>(*parsed);
    };
    if (arg == "--die-after-frames") {
      flags.die_after_frames = value();
    } else if (arg == "--corrupt-frame") {
      flags.corrupt_frame = value();
    } else if (arg == "--garble-frame") {
      flags.garble_frame = value();
    } else if (arg == "--garble-header") {
      flags.garble_header = value();
    } else if (arg == "--hang-after-frames") {
      flags.hang_after_frames = value();
    } else {
      Fail("unknown worker flag: " + std::string(arg));
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  const FaultFlags flags = ParseArgs(argc, argv);

  shep::FleetWorkerJob job;
  shep::ShardPlan plan;
  try {
    job = shep::ParseFleetJob(std::cin);
    plan = shep::BuildShardPlan(job.spec, job.shard_size);
  } catch (const std::exception& e) {
    Fail(e.what());
  }
  if (plan.fingerprint != job.fingerprint) {
    Fail("plan fingerprint mismatch: coordinator and worker disagree about"
         " the campaign (version skew?)");
  }

  // Heartbeat: the control plane.  One short line per period, forever —
  // cheap enough to never gate, and the coordinator times out on silence.
  std::atomic<bool> stop_heartbeat{false};
  std::thread heartbeat(
      [&] { HeartbeatMain(stop_heartbeat, job.heartbeat_ms); });

  // Every shard runs serially on this thread.  The cache only ever sees
  // this plan's lanes, so it holds at most plan.lanes.size() series.
  shep::TraceCache cache;
  std::unique_ptr<shep::TraceSink> sink;
  if (!job.trace_dir.empty()) {
    shep::TraceSinkOptions sink_options;
    sink_options.directory = job.trace_dir;
    sink = std::make_unique<shep::TraceSink>(sink_options);
  }
  shep::FleetRunOptions run_options;
  run_options.shard_size = job.shard_size;
  run_options.trace_cache = &cache;
  run_options.trace_sink = sink.get();

  std::size_t frames_written = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "quit") break;
    if (line.rfind("run ", 0) != 0) Fail("unknown command: " + line);
    const std::optional<long long> shard = shep::ParseInt(line.substr(4));
    if (!shard || static_cast<std::size_t>(*shard) >= plan.shards.size()) {
      Fail("run command names a shard outside the plan: " + line);
    }

    std::string payload;
    try {
      const shep::FleetPartial partial = shep::RunFleetShards(
          plan, {static_cast<std::size_t>(*shard)}, run_options);
      payload = partial.Serialize();
    } catch (const std::exception& e) {
      Fail(e.what());
    }

    const std::size_t frame_index = frames_written + 1;
    std::string frame;
    if (flags.garble_frame == frame_index) {
      payload[0] = '#';  // honest checksum over an unparseable payload.
      frame = shep::EncodeFleetFrame(static_cast<std::size_t>(*shard),
                                     payload);
    } else {
      frame = shep::EncodeFleetFrame(static_cast<std::size_t>(*shard),
                                     payload);
      if (flags.corrupt_frame == frame_index) {
        // Garble the payload INSIDE the already-checksummed frame: the
        // header's byte count still matches, the checksum does not.
        frame[frame.find('\n') + 1] = '#';
      }
      if (flags.garble_header == frame_index) {
        // Everything after the frame line stays honest; only the byte
        // count lies, by more than any allocation could satisfy.
        const std::string header =
            "frame " + std::to_string(*shard) + ' ' +
            std::to_string(std::numeric_limits<std::uint64_t>::max()) + " 0";
        frame.replace(0, frame.find('\n'), header);
      }
    }
    WriteOut(frame);
    ++frames_written;

    if (flags.die_after_frames != 0 &&
        frames_written >= flags.die_after_frames) {
      std::_Exit(9);  // no bye, no flush: an honest crash.
    }
    if (flags.hang_after_frames != 0 &&
        frames_written >= flags.hang_after_frames) {
      while (true) {  // heartbeating zombie; only SIGKILL ends it.
        std::this_thread::sleep_for(std::chrono::seconds(1));
      }
    }
  }

  stop_heartbeat.store(true, std::memory_order_relaxed);
  heartbeat.join();
  WriteOut("bye\n");
  return 0;
}
