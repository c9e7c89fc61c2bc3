#include "fleet/coord.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/serdes.hpp"
#include "fleet/partial.hpp"
#include "fleet/runner.hpp"
#include "fleet/shard_plan.hpp"
#include "trace/trace_file.hpp"

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

}  // namespace

std::string EncodeFleetJob(const FleetWorkerJob& job) {
  SHEP_REQUIRE(job.trace_dir.find('\n') == std::string::npos,
               "trace directory must not contain a newline");
  const std::string spec_text = job.spec.Describe();
  SHEP_REQUIRE(spec_text.size() <= kMaxJobSpecBytes,
               "fleet job spec text exceeds the job size cap");
  std::ostringstream os;
  os << "shep-fleet-job v2\n";
  os << "fingerprint " << job.fingerprint << '\n';
  os << "shard-size " << job.shard_size << '\n';
  os << "heartbeat-ms " << job.heartbeat_ms << '\n';
  // The directory is the rest of the line ("-" = telemetry off), so paths
  // with spaces survive.
  os << "trace-dir " << (job.trace_dir.empty() ? "-" : job.trace_dir) << '\n';
  os << "spec " << spec_text.size() << '\n' << spec_text;
  os << "end-job\n";
  return os.str();
}

FleetWorkerJob ParseFleetJob(std::istream& in) {
  serdes::ExpectToken(in, "shep-fleet-job");
  serdes::ExpectToken(in, "v2");
  FleetWorkerJob job;
  serdes::ExpectToken(in, "fingerprint");
  job.fingerprint = serdes::ReadU64(in);
  serdes::ExpectToken(in, "shard-size");
  job.shard_size = static_cast<std::size_t>(serdes::ReadU64(in));
  serdes::ExpectToken(in, "heartbeat-ms");
  job.heartbeat_ms = static_cast<std::uint32_t>(serdes::ReadU64(in));
  serdes::ExpectToken(in, "trace-dir");
  in >> std::ws;
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
  return job;
}

std::uint64_t FleetFrameChecksum(std::string_view payload) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis.
  for (unsigned char c : payload) {
    h ^= c;
    h *= 1099511628211ull;  // FNV-1a 64 prime.
  }
  return h;
}

std::string EncodeFleetFrame(std::size_t shard, const std::string& payload) {
  std::ostringstream os;
  os << "frame " << shard << ' ' << payload.size() << ' '
     << FleetFrameChecksum(payload) << '\n';
  os << payload;
  os << "end-frame\n";
  return os.str();
}

// ---- Coordinator ---------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

/// Longest line a worker may send.  Every protocol line (heartbeat, frame
/// header, trailer, one-line error) is far shorter; the cap only stops a
/// stream with no newline from growing a line without bound.
constexpr std::size_t kMaxLineBytes = 1 << 16;

/// Buffered reader over a pipe fd: the frame protocol needs both
/// line-at-a-time and exact-byte reads from one stream.
class FdReader {
 public:
  explicit FdReader(int fd) : fd_(fd) {}

  /// Next '\n'-terminated line without the terminator; nullopt on EOF (a
  /// final unterminated line is discarded — a dying worker's half-written
  /// line is never actionable) or once a line outgrows kMaxLineBytes
  /// (then overlong() is set and the stream is no longer readable).
  std::optional<std::string> ReadLine() {
    std::string line;
    while (true) {
      for (; pos_ < len_; ++pos_) {
        if (buf_[pos_] == '\n') {
          ++pos_;
          return line;
        }
        if (line.size() == kMaxLineBytes) {
          overlong_ = true;
          return std::nullopt;
        }
        line.push_back(buf_[pos_]);
      }
      if (!Fill()) return std::nullopt;
    }
  }

  /// True once ReadLine met a line longer than kMaxLineBytes.
  bool overlong() const { return overlong_; }

  /// Exactly `n` bytes into `out`; false on EOF before they all arrive.
  bool ReadExact(std::string& out, std::size_t n) {
    out.clear();
    out.reserve(n);
    while (out.size() < n) {
      if (pos_ == len_ && !Fill()) return false;
      const std::size_t take = std::min(n - out.size(), len_ - pos_);
      out.append(buf_ + pos_, take);
      pos_ += take;
    }
    return true;
  }

 private:
  bool Fill() {
    pos_ = len_ = 0;
    while (true) {
      const ssize_t got = ::read(fd_, buf_, sizeof buf_);
      if (got > 0) {
        len_ = static_cast<std::size_t>(got);
        return true;
      }
      if (got == 0) return false;
      if (errno != EINTR) return false;
    }
  }

  int fd_;
  char buf_[1 << 16];
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  bool overlong_ = false;
};

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

enum class ShardState { kPending, kInflight, kDone };

/// Shards that read the same set of weather lanes.  A worker caches every
/// lane it synthesizes, so keeping a group on one worker pays for its lanes
/// once instead of once per worker that touches the group.
struct ShardGroup {
  std::vector<std::size_t> lanes;  ///< sorted, distinct.
  std::deque<std::size_t> pending;  ///< plan order.
  std::size_t servers = 0;          ///< unreaped workers serving the group.
};

struct WorkerProc {
  std::size_t spawn = 0;  ///< monotone spawn id (stable across respawns).
  pid_t pid = -1;
  int stdin_fd = -1;
  int stdout_fd = -1;
  std::thread reader;

  // Guarded by the coordinator mutex:
  bool alive = true;    ///< reader thread still streaming.
  bool faulty = false;  ///< sent a corrupt frame; must be killed.
  /// A write to its stdin failed: dispatch nothing more.  Usually the
  /// worker is dead and the reader's EOF reaps it as died; a live one
  /// still answers to the deadlines for the shards it owes.
  bool unwritable = false;
  bool reaped = false;
  Clock::time_point last_activity;
  std::set<std::size_t> inflight;                 ///< dispatched shards.
  std::map<std::size_t, Clock::time_point> sent;  ///< dispatch times.
  std::vector<std::size_t> groups;  ///< shard groups it serves.
  std::set<std::size_t> lanes;      ///< distinct lanes of those groups.
};

struct CoordState {
  std::mutex mutex;
  std::condition_variable cv;

  const ShardPlan* plan = nullptr;
  /// Largest payload an honest frame of this plan can carry.
  std::size_t max_frame_bytes = 0;
  std::vector<ShardState> shard_state;
  std::vector<ShardGroup> groups;
  std::vector<std::size_t> shard_group;               ///< per shard.
  /// Per shard: lanes its latest dispatch made the worker synthesize.
  std::vector<std::size_t> shard_new_lanes;
  /// Lanes whose synthesis time arrived in accepted frames.
  std::size_t lanes_reported = 0;
  std::vector<std::optional<FleetPartial>> partials;  ///< per shard.
  std::vector<std::size_t> winning_spawn;             ///< per shard.
  std::size_t done = 0;

  std::vector<std::unique_ptr<WorkerProc>> workers;
  std::string last_worker_error;
  FleetCoordStats stats;
};

/// Per-worker reader thread: the data plane.  Every byte refreshes the
/// liveness timestamp; frames are checked (checksum, parse, fingerprint,
/// exactly the announced shard) and the first valid frame per shard wins.
void ReaderMain(CoordState& state, WorkerProc& worker) {
  FdReader reader(worker.stdout_fd);
  while (true) {
    std::optional<std::string> line = reader.ReadLine();
    if (!line) break;
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      worker.last_activity = Clock::now();
    }
    if (*line == "hb") continue;
    if (*line == "bye") break;
    if (line->rfind("error ", 0) == 0) {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.last_worker_error = line->substr(6);
      break;  // the worker is about to exit; EOF follows.
    }
    if (line->rfind("frame ", 0) != 0) continue;  // forward compatibility.

    // The header is checked before its byte count sizes anything: a
    // garbled or oversized header is a lie like any other.
    std::istringstream header(line->substr(6));
    std::uint64_t shard = 0, bytes = 0, checksum = 0;
    header >> shard >> bytes >> checksum;
    bool header_ok = !header.fail();
    header >> std::ws;
    header_ok = header_ok && header.eof() &&
                shard < state.plan->shards.size() &&
                bytes <= state.max_frame_bytes;

    // Validate the frame itself; any lie makes the worker faulty (its
    // framing can no longer be trusted, so stop reading it entirely).
    std::optional<FleetPartial> partial;
    if (header_ok) {
      // Payload + trailer, off-lock (pipe reads may block).
      std::string payload;
      bool ok = reader.ReadExact(payload, bytes);
      if (ok) {
        std::optional<std::string> trailer = reader.ReadLine();
        ok = trailer && *trailer == "end-frame";
      }
      if (!ok) break;  // stream died mid-frame: plain worker death.
      if (FleetFrameChecksum(payload) == checksum) {
        try {
          FleetPartial parsed = FleetPartial::Parse(payload);
          if (parsed.plan_fingerprint == state.plan->fingerprint &&
              parsed.shards.size() == 1 && parsed.shards[0].shard == shard) {
            partial = std::move(parsed);
          }
        } catch (const std::exception&) {
          // fall through: corrupt.
        }
      }
    }

    std::unique_lock<std::mutex> lock(state.mutex);
    worker.last_activity = Clock::now();
    if (!partial) {
      ++state.stats.corrupt_frames;
      worker.faulty = true;
      state.cv.notify_all();
      break;
    }
    worker.inflight.erase(shard);
    worker.sent.erase(shard);
    if (state.shard_state[shard] == ShardState::kDone) {
      ++state.stats.duplicate_frames;  // a reassigned shard finished twice.
      continue;
    }
    state.shard_state[shard] = ShardState::kDone;
    state.stats.worker_synth_seconds += partial->synth_seconds;
    state.stats.worker_sim_seconds += partial->sim_seconds;
    state.lanes_reported += state.shard_new_lanes[shard];
    state.partials[shard] = std::move(partial);
    state.winning_spawn[shard] = worker.spawn;
    ++state.done;
    ++state.stats.frames_accepted;
    state.cv.notify_all();
  }
  std::lock_guard<std::mutex> lock(state.mutex);
  if (reader.overlong()) {
    // A line that never ends is a lie like a garbled frame header.
    ++state.stats.corrupt_frames;
    worker.faulty = true;
  }
  worker.alive = false;
  state.cv.notify_all();
}

/// Starts one worker with the pipes as its stdin/stdout.  Throws
/// std::runtime_error when the binary cannot be started at all.
void SpawnWorker(CoordState& state, const FleetCoordOptions& options,
                 const std::string& job_text, std::size_t spawn) {
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

  auto worker = std::make_unique<WorkerProc>();
  worker->spawn = spawn;
  worker->pid = pid;
  worker->stdin_fd = to_child[1];
  worker->stdout_fd = from_child[0];
  worker->last_activity = Clock::now();
  // The job header is far smaller than the pipe buffer, so this never
  // blocks even against a worker that dies before reading it.
  if (!WriteAll(worker->stdin_fd, job_text)) worker->unwritable = true;
  WorkerProc& ref = *worker;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    ++state.stats.workers_spawned;
    state.workers.push_back(std::move(worker));
  }
  ref.reader = std::thread([&state, &ref] { ReaderMain(state, ref); });
  if (options.on_spawn) options.on_spawn(spawn, static_cast<long>(pid));
}

/// Kills (if needed), joins, reaps, and requeues one worker's uncovered
/// shards.  Called with the lock HELD; drops it around the blocking join
/// and waitpid (the reader thread itself takes the lock).
void ReapWorker(CoordState& state, std::unique_lock<std::mutex>& lock,
                WorkerProc& worker, bool was_killed) {
  worker.reaped = true;
  lock.unlock();
  ::close(worker.stdin_fd);
  ::kill(worker.pid, SIGKILL);  // no-op on an already-dead pid (ESRCH).
  if (worker.reader.joinable()) worker.reader.join();
  ::close(worker.stdout_fd);
  int status = 0;
  ::waitpid(worker.pid, &status, 0);
  lock.lock();
  if (was_killed) {
    ++state.stats.workers_killed;
  } else {
    ++state.stats.workers_died;
  }
  // Back to the front of their groups, in plan order; groups nobody else
  // serves become unclaimed again.
  for (auto it = worker.inflight.rbegin(); it != worker.inflight.rend();
       ++it) {
    if (state.shard_state[*it] == ShardState::kInflight) {
      state.shard_state[*it] = ShardState::kPending;
      state.groups[state.shard_group[*it]].pending.push_front(*it);
      ++state.stats.shards_reassigned;
    }
  }
  for (std::size_t group : worker.groups) --state.groups[group].servers;
  worker.inflight.clear();
  worker.sent.clear();
  worker.groups.clear();
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

/// Moves each accepted shard's trace file from its winning spawn's private
/// directory up into the root, then drops the per-spawn directories, so a
/// coordinated traced run leaves exactly the file set a single-process
/// traced run would.
void CollectTraceFiles(const CoordState& state,
                       const FleetCoordOptions& options) {
  namespace fs = std::filesystem;
  const fs::path root(options.trace_dir);
  for (std::size_t shard = 0; shard < state.winning_spawn.size(); ++shard) {
    const std::string name =
        TraceShardFile::FileName(state.plan->fingerprint, shard);
    const fs::path from =
        root / ("worker-" + std::to_string(state.winning_spawn[shard])) /
        name;
    std::error_code ec;
    fs::rename(from, root / name, ec);
    SHEP_CHECK(!ec, "coordinator cannot collect trace file " + from.string() +
                        ": " + ec.message());
  }
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(root, ec)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("worker-", 0) == 0) {
      fs::remove_all(entry.path(), ec);
    }
  }
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
  const std::size_t respawn_budget =
      options.max_respawns != 0 ? options.max_respawns : 2 * options.workers;

  const ShardPlan plan = BuildShardPlan(spec, options.shard_size);

  FleetWorkerJob job;
  job.spec = plan.matrix.spec;  // slot_seconds already forced by expansion.
  job.shard_size = options.shard_size;
  job.heartbeat_ms = options.heartbeat_ms;
  job.fingerprint = plan.fingerprint;

  CoordState state;
  state.plan = &plan;
  state.max_frame_bytes = MaxFramePayloadBytes(plan);
  state.shard_state.assign(plan.shards.size(), ShardState::kPending);
  state.partials.resize(plan.shards.size());
  state.winning_spawn.assign(plan.shards.size(), 0);
  GroupShardsByLanes(state);

  ScopedIgnoreSigpipe sigpipe_guard;
  std::size_t next_spawn = 0;
  auto spawn_one = [&] {
    FleetWorkerJob worker_job = job;
    if (!options.trace_dir.empty()) {
      worker_job.trace_dir =
          (std::filesystem::path(options.trace_dir) /
           ("worker-" + std::to_string(next_spawn)))
              .string();
    }
    SpawnWorker(state, options, EncodeFleetJob(worker_job), next_spawn);
    ++next_spawn;
  };

  // Everything below must tear the fleet down on ANY exit path — a leaked
  // child would outlive the run and keep writing into freed state.
  auto shutdown = [&] {
    std::unique_lock<std::mutex> lock(state.mutex);
    for (auto& worker : state.workers) {
      if (worker->reaped) continue;
      worker->reaped = true;
      lock.unlock();
      WriteAll(worker->stdin_fd, "quit\n");
      ::close(worker->stdin_fd);
      // A worker mid-shard ignores quit until done; SIGKILL keeps
      // shutdown prompt (every needed frame has already been accepted).
      ::kill(worker->pid, SIGKILL);
      if (worker->reader.joinable()) worker->reader.join();
      ::close(worker->stdout_fd);
      int status = 0;
      ::waitpid(worker->pid, &status, 0);
      lock.lock();
    }
  };

  try {
    for (std::size_t i = 0; i < options.workers; ++i) spawn_one();

    std::unique_lock<std::mutex> lock(state.mutex);
    const auto liveness =
        std::chrono::milliseconds(options.liveness_timeout_ms);
    const auto shard_deadline =
        std::chrono::milliseconds(options.shard_timeout_ms);
    while (state.done < plan.shards.size()) {
      const Clock::time_point now = Clock::now();

      // Deadlines: silence => dead, an unanswered shard => straggler.
      // Both become "faulty" so one reap path below handles everything.
      for (auto& worker : state.workers) {
        if (worker->reaped || !worker->alive || worker->faulty) continue;
        // An unwritable worker owing no shard has no deadline left to
        // miss, yet can never be given work.
        if (now - worker->last_activity > liveness ||
            (worker->unwritable && worker->inflight.empty())) {
          worker->faulty = true;
          continue;
        }
        for (const auto& [shard, sent_at] : worker->sent) {
          if (now - sent_at > shard_deadline) {
            worker->faulty = true;
            break;
          }
        }
      }

      // Reap every dead or condemned worker and requeue its shards.
      for (auto& worker : state.workers) {
        if (worker->reaped) continue;
        if (!worker->alive || worker->faulty) {
          ReapWorker(state, lock, *worker, worker->faulty);
        }
      }

      // Keep the fleet at strength while work remains.
      std::size_t live = 0;
      for (const auto& worker : state.workers) {
        if (!worker->reaped) ++live;
      }
      while (live < options.workers && state.done < plan.shards.size() &&
             state.stats.respawns < respawn_budget) {
        ++state.stats.respawns;
        lock.unlock();
        spawn_one();
        lock.lock();
        ++live;
      }
      if (live == 0) {
        throw std::runtime_error(
            "fleet coordinator lost every worker with shards uncovered"
            " (respawn budget exhausted)" +
            (state.last_worker_error.empty()
                 ? std::string()
                 : "; last worker error: " + state.last_worker_error));
      }

      // Dispatch: refill every live worker up to its inflight window.
      for (auto& worker : state.workers) {
        if (worker->reaped || !worker->alive || worker->faulty ||
            worker->unwritable) {
          continue;
        }
        while (worker->inflight.size() < kMaxInflightPerWorker) {
          const std::optional<std::size_t> picked = PickShard(state, *worker);
          if (!picked) break;
          const std::size_t shard = *picked;
          state.shard_state[shard] = ShardState::kInflight;
          worker->inflight.insert(shard);
          worker->sent.emplace(shard, Clock::now());
          const std::string command = "run " + std::to_string(shard) + "\n";
          const int fd = worker->stdin_fd;
          lock.unlock();
          const bool sent_ok = WriteAll(fd, command);
          lock.lock();
          if (!sent_ok) {
            // Usually EPIPE from a worker that died: its reader's EOF reaps
            // it as died, never as killed.
            worker->unwritable = true;
            break;
          }
        }
      }

      state.cv.wait_for(lock, std::chrono::milliseconds(10));
    }
    lock.unlock();
    shutdown();
  } catch (...) {
    shutdown();
    throw;
  }

  if (!options.trace_dir.empty()) CollectTraceFiles(state, options);
  if (stats != nullptr) *stats = state.stats;

  std::vector<FleetPartial> partials;
  partials.reserve(plan.shards.size());
  for (auto& partial : state.partials) {
    SHEP_CHECK(partial.has_value(), "coordinator finished with a hole");
    partials.push_back(std::move(*partial));
  }
  return MergeFleetPartials(plan, partials);
}

}  // namespace shep
