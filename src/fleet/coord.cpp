#include "fleet/coord.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <istream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <streambuf>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/serdes.hpp"
#include "fleet/partial.hpp"
#include "fleet/runner.hpp"
#include "fleet/shard_plan.hpp"

namespace shep {

// ---- Wire protocol -------------------------------------------------------

namespace {

/// Cap on a job's spec text.  A spec costs a few hundred bytes per site and
/// predictor, so this is orders of magnitude of headroom; it exists so a
/// garbled byte count can never size an allocation.
constexpr std::uint64_t kMaxJobSpecBytes = 1 << 20;

/// Shards dispatched to a worker ahead of completion: two hide the
/// dispatch round-trip, and every frame still carries exactly one shard.
constexpr std::size_t kMaxInflightPerWorker = 2;

constexpr std::string_view kFrameTrailer = "end-frame\n";

/// An unbuffered view of another stream buffer that keeps every byte its
/// reader extracts.  A job is read from the worker's stdin, which goes on
/// with commands, so ParseFleetJob may take no byte past the job's last
/// newline; reading through this view, it can still compare the bytes it
/// consumed with EncodeFleetJob's text of what it parsed.
class RecordingBuf : public std::streambuf {
 public:
  explicit RecordingBuf(std::streambuf* source) : source_(source) {}
  const std::string& bytes() const { return bytes_; }

 protected:
  int_type underflow() override { return source_->sgetc(); }
  int_type uflow() override {
    const int_type c = source_->sbumpc();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      bytes_.push_back(traits_type::to_char_type(c));
    }
    return c;
  }

 private:
  std::streambuf* source_;
  std::string bytes_;
};

/// The job's plain-token lines; its trace directory and spec follow.
constexpr auto WalkJobHeader = [](auto& io, auto& job) {
  serdes::Line(io, "shep-fleet-job");
  serdes::Key(io, "v2");
  serdes::Line(io, "fingerprint", job.fingerprint);
  serdes::Line(io, "shard-size", job.shard_size);
  serdes::Line(io, "heartbeat-ms", job.heartbeat_ms);
};

}  // namespace

std::string EncodeFleetJob(const FleetWorkerJob& job) {
  SHEP_REQUIRE(job.trace_dir.find('\n') == std::string::npos,
               "trace directory must not contain a newline");
  SHEP_REQUIRE(job.trace_dir != "-",
               "trace directory `-` would read back as telemetry off");
  const std::string spec_text = job.spec.Describe();
  SHEP_REQUIRE(spec_text.size() <= kMaxJobSpecBytes,
               "fleet job spec text exceeds the job size cap");
  std::ostringstream os;
  serdes::Writer writer(os);
  WalkJobHeader(writer, job);
  // The directory is the rest of the line after one space ("-" = telemetry
  // off), so paths with spaces, leading ones too, survive; the spec follows
  // as its byte count and its text.
  writer.EndLine() << "trace-dir "
                   << (job.trace_dir.empty() ? "-" : job.trace_dir) << '\n';
  os << "spec " << spec_text.size() << '\n' << spec_text;
  os << "end-job\n";
  return os.str();
}

FleetWorkerJob ParseFleetJob(std::istream& stream) {
  RecordingBuf recorded(stream.rdbuf());
  std::istream in(&recorded);
  auto job = serdes::Read<FleetWorkerJob>(in, WalkJobHeader);
  SHEP_REQUIRE(job.heartbeat_ms > 0, "fleet job heartbeat must be positive");
  serdes::ExpectToken(in, "trace-dir");
  SHEP_REQUIRE(in.get() == ' ',
               "fleet job trace directory must follow one space");
  std::string dir;
  std::getline(in, dir);
  SHEP_REQUIRE(!dir.empty(), "fleet job is missing the trace directory");
  job.trace_dir = dir == "-" ? std::string() : dir;
  serdes::ExpectToken(in, "spec");
  const std::uint64_t spec_bytes = serdes::ReadU64(in);
  SHEP_REQUIRE(spec_bytes <= kMaxJobSpecBytes,
               "fleet job spec byte count exceeds the job size cap");
  SHEP_REQUIRE(in.get() == '\n', "fleet job spec must start on a new line");
  std::string spec_text(spec_bytes, '\0');
  in.read(spec_text.data(), static_cast<std::streamsize>(spec_bytes));
  SHEP_REQUIRE(in.gcount() == static_cast<std::streamsize>(spec_bytes),
               "fleet job ended inside the spec text");
  job.spec = ParseScenarioSpec(spec_text);
  serdes::ExpectToken(in, "end-job");
  SHEP_REQUIRE(in.get() == '\n', "fleet job must end with a newline");
  // Each token reads back only in its one spelling; this also refuses what
  // lies between them (whitespace runs, tabs, leading blank lines).
  SHEP_REQUIRE(EncodeFleetJob(job) == recorded.bytes(),
               "fleet job text is not the EncodeFleetJob() text of its job");
  return job;
}

std::uint64_t FleetFrameChecksum(std::string_view payload) {
  serdes::Fnv1a hash;
  hash.Bytes(payload);
  return hash.value();
}

std::string EncodeFleetFrame(std::size_t shard, const std::string& payload) {
  std::ostringstream os;
  os << "frame " << shard << ' ' << payload.size() << ' '
     << FleetFrameChecksum(payload) << '\n';
  os << payload << kFrameTrailer;
  return os.str();
}

// ---- Coordinator ---------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

/// Longest line a worker may send.  Every protocol line (heartbeat, frame
/// header, trailer, one-line error) is far shorter; the cap only stops a
/// stream with no newline from growing an inbox without bound.  It is also
/// the most one read() takes from a worker.
constexpr std::size_t kMaxLineBytes = 1 << 16;

/// Longest one pass of the event loop waits for worker output.
constexpr int kPollTimeoutMs = 10;

/// Writes the whole buffer; false on any error (EPIPE = worker death).
bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t wrote = ::write(fd, data.data(), data.size());
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(wrote));
  }
  return true;
}

/// Shards that read the same set of weather lanes.  A worker caches every
/// lane it synthesizes, so keeping a group on one worker pays for its lanes
/// once instead of once per worker that touches the group.
struct ShardGroup {
  std::vector<std::size_t> lanes;  ///< sorted, distinct.
  std::deque<std::size_t> pending;  ///< plan order.
  std::size_t servers = 0;          ///< live workers serving the group.
};

struct WorkerProc {
  pid_t pid = -1;
  int stdin_fd = -1;
  int stdout_fd = -1;
  /// Bytes read but not yet handled: at most one unfinished message, which
  /// is never longer than max(kMaxLineBytes, frame header +
  /// max_frame_bytes + trailer).
  std::string inbox;
  bool ended = false;   ///< stdout closed or sent an error: reap as died.
  bool faulty = false;  ///< lied or went silent owing a shard: killed.
  /// A write to its stdin failed: dispatch nothing more.  Usually the
  /// worker is dead and its EOF reaps it as died; a live one still answers
  /// to the liveness deadline for the shards it owes.
  bool unwritable = false;
  /// Last byte read from it, or its last dispatch from idle.  The liveness
  /// deadline runs from here only while the worker owes a shard.
  Clock::time_point last_activity;
  std::set<std::size_t> inflight;  ///< dispatched shards it still owes.
  std::vector<std::size_t> groups;  ///< shard groups it serves.
  std::set<std::size_t> lanes;      ///< distinct lanes of those groups.
};

struct CoordState {
  const ShardPlan* plan = nullptr;
  /// Largest payload an honest frame of this plan can carry.
  std::size_t max_frame_bytes = 0;
  /// Each shard is in exactly one place: pending in its group, owed by one
  /// live worker (WorkerProc::inflight), or accepted here.
  std::vector<ShardGroup> groups;
  std::vector<std::size_t> shard_group;               ///< per shard.
  /// Per shard: lanes its latest dispatch made the worker synthesize.
  std::vector<std::size_t> shard_new_lanes;
  /// Lanes whose synthesis time arrived in accepted frames.
  std::size_t lanes_reported = 0;
  std::vector<FleetPartial> partials;  ///< accepted, in arrival order.

  std::vector<WorkerProc> workers;  ///< live (unreaped) workers.
  std::string last_worker_error;
  FleetCoordStats stats;
};

/// A frame header's shard, byte count and checksum: exactly three canonical
/// decimals one space apart, as EncodeFleetFrame writes them after
/// "frame ".  Empty on any other text.
std::optional<std::array<std::uint64_t, 3>> ParseFrameHeader(
    std::string_view fields) {
  std::array<std::uint64_t, 3> values{};
  try {
    for (std::uint64_t& value : values) {
      const std::size_t space =
          &value == &values.back() ? fields.npos : fields.find(' ');
      value = serdes::ParseU64(fields.substr(0, space));
      fields = space == fields.npos ? std::string_view()
                                    : fields.substr(space + 1);
    }
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return values;
}

/// Checks one complete frame (checksum, parse, fingerprint, exactly the
/// announced shard) and records it; false when the frame lies.  A valid
/// frame counts only when its sender owes the shard; any other is dropped.
bool AcceptFrame(CoordState& state, WorkerProc& worker, std::size_t shard,
                 std::uint64_t checksum, std::string_view payload) {
  if (FleetFrameChecksum(payload) != checksum) return false;
  FleetPartial partial;
  try {
    partial = FleetPartial::Parse(std::string(payload));
  } catch (const std::exception&) {
    return false;
  }
  if (partial.plan_fingerprint != state.plan->fingerprint ||
      partial.shards.size() != 1 || partial.shards[0].shard != shard) {
    return false;
  }
  if (worker.inflight.erase(shard) == 0) {
    ++state.stats.duplicate_frames;
    return true;
  }
  state.stats.predictor_runs += partial.predictor_runs;
  state.stats.worker_synth_seconds += partial.synth_seconds;
  state.stats.worker_sim_seconds += partial.sim_seconds;
  state.lanes_reported += state.shard_new_lanes[shard];
  state.partials.push_back(std::move(partial));
  ++state.stats.frames_accepted;
  return true;
}

/// Handles every complete message at the front of the worker's inbox and
/// leaves the unfinished tail there for the next read.  Any lie — a line
/// over kMaxLineBytes, a bad frame header, a frame AcceptFrame rejects —
/// makes the worker faulty, and nothing after it is read.
void ConsumeInbox(CoordState& state, WorkerProc& worker) {
  const auto condemn = [&] {
    ++state.stats.corrupt_frames;
    worker.faulty = true;
  };
  const std::string_view in = worker.inbox;
  std::size_t pos = 0;  // start of the first unhandled message.
  while (!worker.ended && !worker.faulty) {
    const std::size_t eol = std::min(in.find('\n', pos), in.size());
    if (eol - pos > kMaxLineBytes) {
      condemn();
      break;
    }
    if (eol == in.size()) break;  // the line is still arriving.
    const std::string_view line = in.substr(pos, eol - pos);
    const std::size_t next = eol + 1;
    if (line.starts_with("error ")) {
      state.last_worker_error = line.substr(6);
      worker.ended = true;  // the worker is about to exit.
    } else if (line.starts_with("frame ")) {
      // The header is checked before its byte count decides how much to
      // buffer: a garbled or oversized header is a lie like any other.
      const auto header = ParseFrameHeader(line.substr(6));
      if (!header || (*header)[0] >= state.plan->shards.size() ||
          (*header)[1] > state.max_frame_bytes) {
        condemn();
        break;
      }
      const auto [shard, bytes, checksum] = *header;
      const std::size_t frame_end = next + bytes + kFrameTrailer.size();
      if (in.size() < frame_end) break;  // the payload is still arriving.
      if (in.substr(next + bytes, kFrameTrailer.size()) != kFrameTrailer) {
        worker.ended = true;  // framing lost, as when the stream dies.
        break;
      }
      if (!AcceptFrame(state, worker, shard, checksum,
                       in.substr(next, bytes))) {
        condemn();
        break;
      }
      pos = frame_end;
      continue;
    }
    pos = next;  // "hb", and unknown lines for forward compatibility.
  }
  worker.inbox.erase(0, pos);
}

/// One read() from a worker that poll(2) reported ready, then every message
/// it completed.  Every byte refreshes the liveness timestamp; EOF, even in
/// the middle of a frame, is a plain death.
void ReadWorker(CoordState& state, WorkerProc& worker) {
  char buf[kMaxLineBytes];
  const ssize_t got = ::read(worker.stdout_fd, buf, sizeof buf);
  if (got < 0 && errno == EINTR) return;
  if (got <= 0) {
    worker.ended = true;
    return;
  }
  worker.last_activity = Clock::now();
  worker.inbox.append(buf, static_cast<std::size_t>(got));
  ConsumeInbox(state, worker);
}

/// Starts one worker with the pipes as its stdin/stdout and writes it the
/// job.  Its spawn id is the count of spawns before it.  Throws
/// std::runtime_error when the binary cannot be started at all.
void SpawnWorker(CoordState& state, const FleetCoordOptions& options,
                 const std::string& job_text) {
  int to_child[2];
  int from_child[2];
  SHEP_CHECK(::pipe2(to_child, O_CLOEXEC) == 0 &&
                 ::pipe2(from_child, O_CLOEXEC) == 0,
             "coordinator cannot create worker pipes");
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(options.worker_path.c_str()));
  for (const std::string& arg : options.worker_args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  // dup2 clears O_CLOEXEC on the copies; every other coordinator fd closes
  // at exec, so sibling pipes never leak into workers (which would mask
  // EOF-based death detection).
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_adddup2(&actions, to_child[0], STDIN_FILENO);
  ::posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
  pid_t pid = -1;
  const int error = ::posix_spawn(&pid, options.worker_path.c_str(), &actions,
                                  nullptr, argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  ::close(to_child[0]);
  ::close(from_child[1]);
  if (error != 0) {
    ::close(to_child[1]);
    ::close(from_child[0]);
    throw std::runtime_error("fleet coordinator cannot spawn worker " +
                             options.worker_path + ": " +
                             std::strerror(error) + " (errno " +
                             std::to_string(error) + ")");
  }

  WorkerProc worker;
  worker.pid = pid;
  worker.stdin_fd = to_child[1];
  worker.stdout_fd = from_child[0];
  // The job header is far smaller than the pipe buffer, so this never
  // blocks even against a worker that dies before reading it.
  if (!WriteAll(worker.stdin_fd, job_text)) worker.unwritable = true;
  const std::size_t spawn = state.stats.workers_spawned++;
  state.workers.push_back(std::move(worker));
  if (options.on_spawn) options.on_spawn(spawn, static_cast<long>(pid));
}

/// Ends one worker process with no quit message: SIGKILL stops it at once,
/// mid-shard or idle (a no-op on one already dead), and waitpid reaps it.
void StopWorker(const WorkerProc& worker) {
  ::close(worker.stdin_fd);
  ::kill(worker.pid, SIGKILL);
  ::close(worker.stdout_fd);
  int status = 0;
  ::waitpid(worker.pid, &status, 0);
}

/// Stops a dead or condemned worker and requeues the shards it still owed.
void ReapWorker(CoordState& state, const WorkerProc& worker) {
  StopWorker(worker);
  if (worker.faulty) {
    ++state.stats.workers_killed;
  } else {
    ++state.stats.workers_died;
  }
  // Every shard it still owes goes back to the front of its group, in plan
  // order; groups nobody else serves become unclaimed again.
  for (auto it = worker.inflight.rbegin(); it != worker.inflight.rend();
       ++it) {
    state.groups[state.shard_group[*it]].pending.push_front(*it);
  }
  state.stats.shards_reassigned += worker.inflight.size();
  for (std::size_t group : worker.groups) --state.groups[group].servers;
}

/// Splits the plan's shards into groups by the exact set of lanes they
/// read.  Lanes are keyed (site, replica) and nodes are cell-major, so
/// shards covering the same replica range of one site's cells land in one
/// group.  Groups are numbered in plan order.
void GroupShardsByLanes(CoordState& state) {
  const ShardPlan& plan = *state.plan;
  std::map<std::vector<std::size_t>, std::size_t> index;
  state.shard_group.resize(plan.shards.size());
  state.shard_new_lanes.resize(plan.shards.size());
  for (const ShardRange& range : plan.shards) {
    std::vector<std::size_t> lanes;
    for (std::size_t node = range.begin_node; node < range.end_node; ++node) {
      lanes.push_back(plan.matrix.trace_lane(plan.matrix.nodes[node]));
    }
    std::sort(lanes.begin(), lanes.end());
    lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
    const auto [it, added] = index.emplace(std::move(lanes), index.size());
    if (added) state.groups.push_back(ShardGroup{it->first, {}, 0});
    state.groups[it->second].pending.push_back(range.index);
    state.shard_group[range.index] = it->second;
  }
}

/// Whether idle `worker` should join `group`, which others already serve.
/// It pays when synthesizing the lanes the worker lacks and then running
/// one shard takes less time than the group's servers need for its pending
/// shards.  Costs are the averages the workers reported so far; before any
/// report arrives, stealing is assumed to pay.
bool StealPays(const CoordState& state, const WorkerProc& worker,
               const ShardGroup& group) {
  const FleetCoordStats& stats = state.stats;
  if (stats.frames_accepted == 0 || state.lanes_reported == 0) return true;
  const double lane_s =
      stats.worker_synth_seconds / static_cast<double>(state.lanes_reported);
  const double shard_s =
      stats.worker_sim_seconds / static_cast<double>(stats.frames_accepted);
  std::size_t missing = 0;
  for (std::size_t lane : group.lanes) {
    if (worker.lanes.count(lane) == 0) ++missing;
  }
  return static_cast<double>(missing) * lane_s + shard_s <
         static_cast<double>(group.pending.size()) * shard_s /
             static_cast<double>(group.servers);
}

/// Lane-affinity dispatch: the next shard for `worker`, or nullopt when it
/// should wait.  A worker first drains the groups it already serves, then
/// claims the first unclaimed group.  Only when neither is left, and only
/// once the worker is idle, does it steal from the group with the most
/// pending shards, and only if the steal pays for the lanes it
/// re-synthesizes.
std::optional<std::size_t> PickShard(CoordState& state, WorkerProc& worker) {
  std::optional<std::size_t> pick;
  for (std::size_t g : worker.groups) {
    if (!state.groups[g].pending.empty()) {
      pick = g;
      break;
    }
  }
  std::size_t new_lanes = 0;
  if (!pick) {
    std::optional<std::size_t> steal;
    for (std::size_t g = 0; g < state.groups.size(); ++g) {
      const ShardGroup& group = state.groups[g];
      if (group.pending.empty()) continue;
      if (group.servers == 0) {
        pick = g;
        break;
      }
      if (!steal ||
          group.pending.size() > state.groups[*steal].pending.size()) {
        steal = g;
      }
    }
    if (!pick && steal && worker.inflight.empty() &&
        StealPays(state, worker, state.groups[*steal])) {
      pick = steal;
    }
    if (!pick) return std::nullopt;
    ShardGroup& joined = state.groups[*pick];
    ++joined.servers;
    worker.groups.push_back(*pick);
    for (std::size_t lane : joined.lanes) {
      if (worker.lanes.insert(lane).second) ++new_lanes;
    }
    state.stats.lanes_synthesized += new_lanes;
  }
  std::deque<std::size_t>& pending = state.groups[*pick].pending;
  const std::size_t shard = pending.front();
  pending.pop_front();
  state.shard_new_lanes[shard] = new_lanes;
  return shard;
}

/// Largest payload an honest frame of `plan` can carry.  A one-shard
/// partial is a short header plus, per cell the shard touches (at most one
/// per node), nine moments lines, two sparse histograms holding one
/// observation per node, and a totals line: under 2 KiB per node, so the
/// cap allows twice that.
std::size_t MaxFramePayloadBytes(const ShardPlan& plan) {
  std::size_t max_nodes = 0;
  for (const ShardRange& range : plan.shards) {
    max_nodes = std::max(max_nodes, range.node_count());
  }
  return 4096 + plan.matrix.spec.name.size() + 4096 * max_nodes;
}

/// RAII SIGPIPE guard: a write to a SIGKILLed worker's stdin must surface
/// as EPIPE (handled as a death), not kill the coordinator.
class ScopedIgnoreSigpipe {
 public:
  ScopedIgnoreSigpipe() {
    struct sigaction ignore = {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &previous_);
  }
  ~ScopedIgnoreSigpipe() { ::sigaction(SIGPIPE, &previous_, nullptr); }

 private:
  struct sigaction previous_ = {};
};

}  // namespace

FleetSummary RunFleetCoordinated(const ScenarioSpec& spec,
                                 const FleetCoordOptions& options,
                                 FleetCoordStats* stats) {
  SHEP_REQUIRE(!options.worker_path.empty(),
               "coordinator needs a worker binary path");
  SHEP_REQUIRE(options.workers > 0, "coordinator needs at least one worker");
  SHEP_REQUIRE(options.heartbeat_ms > 0,
               "coordinator needs a positive worker heartbeat");
  SHEP_REQUIRE(options.liveness_timeout_ms > options.heartbeat_ms,
               "coordinator liveness deadline must exceed the heartbeat");
  const std::size_t respawn_budget =
      options.max_respawns != 0 ? options.max_respawns : 2 * options.workers;

  const ShardPlan plan = BuildShardPlan(spec, options.shard_size);

  FleetWorkerJob job;
  job.spec = plan.matrix.spec;  // slot_seconds already forced by expansion.
  job.shard_size = options.shard_size;
  job.heartbeat_ms = options.heartbeat_ms;
  job.fingerprint = plan.fingerprint;
  job.trace_dir = options.trace_dir;
  const std::string job_text = EncodeFleetJob(job);

  CoordState state;
  state.plan = &plan;
  state.max_frame_bytes = MaxFramePayloadBytes(plan);
  state.partials.reserve(plan.shards.size());
  GroupShardsByLanes(state);

  ScopedIgnoreSigpipe sigpipe_guard;

  // Everything below must stop the fleet on ANY exit path — a leaked child
  // would outlive the run.
  auto shutdown = [&] {
    for (const WorkerProc& worker : state.workers) StopWorker(worker);
    state.workers.clear();
  };

  // One thread runs the whole fleet.  Each pass checks liveness, reaps
  // and replaces dead or condemned workers, dispatches, then waits at most
  // kPollTimeoutMs for worker output and reads each ready worker once.
  try {
    for (std::size_t i = 0; i < options.workers; ++i) {
      SpawnWorker(state, options, job_text);
    }

    const auto liveness =
        std::chrono::milliseconds(options.liveness_timeout_ms);
    std::vector<pollfd> polled;
    while (state.partials.size() < plan.shards.size()) {
      const Clock::time_point now = Clock::now();

      // Liveness: a worker silent past the deadline while it owes a shard
      // is condemned ("faulty"), so one reap path below handles it.  An
      // idle worker sends nothing and is never condemned for that; an
      // unwritable one owing no shard can never be given work, though.
      for (WorkerProc& worker : state.workers) {
        if (worker.ended || worker.faulty) continue;
        if (worker.inflight.empty() ? worker.unwritable
                                    : now - worker.last_activity > liveness) {
          worker.faulty = true;
        }
      }

      // Reap every dead or condemned worker, requeue its shards, and keep
      // the fleet at strength while the respawn budget lasts.
      std::erase_if(state.workers, [&state](const WorkerProc& worker) {
        if (!worker.ended && !worker.faulty) return false;
        ReapWorker(state, worker);
        return true;
      });
      while (state.workers.size() < options.workers &&
             state.stats.respawns < respawn_budget) {
        ++state.stats.respawns;
        SpawnWorker(state, options, job_text);
      }
      if (state.workers.empty()) {
        throw std::runtime_error(
            "fleet coordinator lost every worker with shards uncovered"
            " (respawn budget exhausted)" +
            (state.last_worker_error.empty()
                 ? std::string()
                 : "; last worker error: " + state.last_worker_error));
      }

      // Dispatch: refill every worker up to its inflight window.
      for (WorkerProc& worker : state.workers) {
        if (worker.unwritable) continue;
        while (worker.inflight.size() < kMaxInflightPerWorker) {
          const std::optional<std::size_t> picked = PickShard(state, worker);
          if (!picked) break;
          const std::size_t shard = *picked;
          // An idle worker's silence was not owed; its clock starts now.
          if (worker.inflight.empty()) worker.last_activity = Clock::now();
          worker.inflight.insert(shard);
          if (!WriteAll(worker.stdin_fd,
                        "run " + std::to_string(shard) + "\n")) {
            // Usually EPIPE from a worker that died: its EOF reaps it as
            // died, never as killed.
            worker.unwritable = true;
            break;
          }
        }
      }

      // Wait for output; EINTR just starts the next pass.
      polled.clear();
      for (const WorkerProc& worker : state.workers) {
        polled.push_back(pollfd{worker.stdout_fd, POLLIN, 0});
      }
      if (::poll(polled.data(), polled.size(), kPollTimeoutMs) < 0) {
        SHEP_CHECK(errno == EINTR, "coordinator cannot poll its workers");
        continue;
      }
      for (std::size_t i = 0; i < polled.size(); ++i) {
        if (polled[i].revents != 0) ReadWorker(state, state.workers[i]);
      }
    }
    shutdown();
  } catch (...) {
    shutdown();
    throw;
  }

  if (stats != nullptr) *stats = state.stats;
  return MergeFleetPartials(plan, state.partials);
}

}  // namespace shep
