// shep_fleet_worker — the worker end of the multi-process fleet runtime
// (src/fleet/coord.hpp documents the protocol).
//
// The process reads one job from stdin (the campaign's exact ScenarioSpec
// text + shard size), rebuilds the shard plan and proves identity by
// checking its fingerprint against the job's, then serves "run <shard>",
// its one command: each shard runs through the ordinary RunFleetShards and
// goes back as one checksummed frame of FleetPartial::Serialize() text.
// Besides frames it writes only "hb" and, before it exits 1, one "error"
// line; EOF on stdin ends it with 0.  One ForecastMemo spans the job, so a
// (lane, design) pair recorded for one shard is replayed to the shards
// holding its other storage tiers.  The worker has one thread.
// RunFleetShards' progress hook fires after every weather lane and every
// node, and there the worker sends "hb" if it has written nothing for a
// heartbeat period.  So a worker busy on a shard keeps talking, and one
// stuck inside a lane or a node goes silent; the coordinator's liveness
// deadline then reaps it.
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
//   --spin-in-shard N      Nth shard: busy-loop forever at its first
//                          progress point and write nothing (a data plane
//                          stuck mid-shard; only the liveness deadline
//                          ends it).
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/serdes.hpp"
#include "common/strings.hpp"
#include "fleet/coord.hpp"
#include "fleet/forecast_replay.hpp"
#include "fleet/partial.hpp"
#include "fleet/runner.hpp"
#include "fleet/shard_plan.hpp"
#include "fleet/trace_cache.hpp"
#include "trace/sink.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// When the worker last wrote to stdout; the heartbeat throttles on it.
Clock::time_point g_last_write = Clock::now();

/// Writes the whole message to stdout.
void WriteOut(std::string_view data) {
  while (!data.empty()) {
    const ssize_t wrote = ::write(STDOUT_FILENO, data.data(), data.size());
    if (wrote < 0) {
      if (errno == EINTR) continue;
      std::exit(2);  // coordinator gone; nothing sensible left to do.
    }
    data.remove_prefix(static_cast<std::size_t>(wrote));
  }
  g_last_write = Clock::now();
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
  std::size_t spin_in_shard = 0;      ///< 1-based shard index; 0 = never.
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
    } else if (arg == "--spin-in-shard") {
      flags.spin_in_shard = value();
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

  // Every shard runs serially on this thread.  The cache only ever sees
  // this plan's lanes, so it holds at most plan.lanes.size() series.  The
  // forecast memo carries each (lane, design) recording from the job that
  // makes it to the later jobs that read it: lane-affinity dispatch keeps
  // every storage tier of a design on this worker.  It holds at most the
  // current shard's lanes x designs recordings (fleet/forecast_replay.hpp).
  shep::TraceCache cache;
  std::vector<std::size_t> all_shards(plan.shards.size());
  std::iota(all_shards.begin(), all_shards.end(), 0);
  shep::ForecastMemo memo(plan, all_shards);
  std::unique_ptr<shep::TraceSink> sink;
  if (!job.trace_dir.empty()) {
    shep::TraceSinkOptions sink_options;
    sink_options.directory = job.trace_dir;
    sink = std::make_unique<shep::TraceSink>(sink_options);
  }
  shep::FleetRunOptions run_options;
  run_options.trace_cache = &cache;
  run_options.forecast_memo = &memo;
  run_options.trace_sink = sink.get();
  // Each progress point sends "hb" unless something went out within the
  // last heartbeat period.
  std::size_t shards_run = 0;  // including the one in progress.
  const std::chrono::milliseconds period(job.heartbeat_ms);
  run_options.on_progress = [&] {
    if (shards_run == flags.spin_in_shard) {
      volatile bool spinning = true;  // a volatile read per pass: no UB.
      while (spinning) {
      }
    }
    if (Clock::now() - g_last_write >= period) WriteOut("hb\n");
  };

  std::size_t frames_written = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.rfind("run ", 0) != 0) Fail("unknown command: " + line);
    // A canonical decimal only: "+3" or "007" is not a shard number.
    std::size_t shard = plan.shards.size();  // refused unless parsed.
    try {
      shard = shep::serdes::ParseU64(std::string_view(line).substr(4));
    } catch (const std::invalid_argument&) {
    }
    if (shard >= plan.shards.size()) {
      Fail("run command names a shard outside the plan: " + line);
    }

    std::string payload;
    ++shards_run;
    try {
      const shep::FleetPartial partial = shep::RunFleetShards(
          plan, {shard}, run_options);
      payload = partial.Serialize();
    } catch (const std::exception& e) {
      Fail(e.what());
    }

    const std::size_t frame_index = frames_written + 1;
    std::string frame;
    if (flags.garble_frame == frame_index) {
      payload[0] = '#';  // honest checksum over an unparseable payload.
      frame = shep::EncodeFleetFrame(shard, payload);
    } else {
      frame = shep::EncodeFleetFrame(shard, payload);
      if (flags.corrupt_frame == frame_index) {
        // Garble the payload INSIDE the already-checksummed frame: the
        // header's byte count still matches, the checksum does not.
        frame[frame.find('\n') + 1] = '#';
      }
      if (flags.garble_header == frame_index) {
        // Everything after the frame line stays honest; only the byte
        // count lies, by more than any allocation could satisfy.
        const std::string header =
            "frame " + std::to_string(shard) + ' ' +
            std::to_string(std::numeric_limits<std::uint64_t>::max()) + " 0";
        frame.replace(0, frame.find('\n'), header);
      }
    }
    WriteOut(frame);
    ++frames_written;

    if (flags.die_after_frames != 0 &&
        frames_written >= flags.die_after_frames) {
      std::_Exit(9);  // no flush, no clean exit: an honest crash.
    }
  }
  return 0;
}
