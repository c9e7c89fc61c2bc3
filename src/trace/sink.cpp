#include "trace/sink.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>

#include "common/check.hpp"
#include "trace/policy.hpp"

namespace shep {

namespace {

/// Events moved per ring per sweep; bounds drain-side latency without
/// letting one busy ring starve the others.
constexpr std::size_t kDrainBatch = 1024;

}  // namespace

TraceSink::TraceSink(TraceSinkOptions options) : options_(std::move(options)) {
  SHEP_REQUIRE(options_.ring_capacity >= 2,
               "trace sink needs ring_capacity >= 2");
  batch_.reserve(kDrainBatch);
}

TraceSink::~TraceSink() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  drain_cv_.notify_all();
  if (drain_.joinable()) drain_.join();
}

void TraceSink::BeginRun(const TraceRunContext& context) {
  SHEP_REQUIRE(context.slots_per_day > 0,
               "trace run context needs slots_per_day > 0");
  if (!options_.directory.empty()) {
    std::filesystem::create_directories(options_.directory);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  context_ = context;
  if (!thread_running_) {
    drain_ = std::thread([this] { DrainLoop(); });
    thread_running_ = true;
  }
}

void TraceSink::EnsureWorkers(std::size_t workers) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (rings_.size() < workers) {
    rings_.push_back(std::make_unique<TraceRing>(options_.ring_capacity));
  }
  assemblies_.resize(rings_.size());
}

TraceRing& TraceSink::ring(std::size_t worker) {
  // No lock: rings_ is only ever mutated by EnsureWorkers, which the
  // threading contract forbids concurrently with producers.
  SHEP_REQUIRE(worker < rings_.size(),
               "trace ring requested for an unknown worker");
  return *rings_[worker];
}

void TraceSink::EndShard(std::size_t worker, std::uint64_t shard,
                         std::uint64_t dropped) {
  TraceEvent marker;
  marker.kind = TraceEvent::Kind::kShardEnd;
  marker.shard = shard;
  marker.dropped = dropped;
  TraceRing& target = ring(worker);
  // Unlike slot events, the marker must land: the drain cannot finalize
  // the shard's file without it.  Spin-yield until the drain makes room;
  // shard ends are rare, so this never shows up in profiles.  But only a
  // RUNNING drain ever makes room — if the sink is stopping (or the drain
  // was never started), waiting on it would spin forever, so give up,
  // account the shard's drops, and record the shard as lost instead of
  // silently dropping its footer.  This is exactly the path a coordinated
  // worker takes when it is torn down mid-shard.
  while (!target.TryPush(marker)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_ || !thread_running_) {
        stats_.dropped += dropped;
        ++stats_.lost_shards;
        return;
      }
    }
    drain_cv_.notify_all();
    std::this_thread::yield();
  }
  drain_cv_.notify_all();
}

void TraceSink::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!thread_running_) return;
  flush_requested_ = true;
  drain_cv_.notify_all();
  flush_cv_.wait(lock, [this] { return !flush_requested_; });
}

TraceSinkStats TraceSink::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void TraceSink::DrainLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    const std::size_t drained = DrainPass();
    if (drained > 0) continue;  // stay hot while events are flowing.
    if (flush_requested_) {
      // Rings are empty and producers are quiescent (Flush's contract),
      // and every shard-end marker has been consumed, so all files are on
      // disk: the flush is complete.
      flush_requested_ = false;
      flush_cv_.notify_all();
    }
    if (stopping_) return;
    drain_cv_.wait_for(lock,
                       std::chrono::microseconds(options_.drain_idle_micros));
  }
}

std::size_t TraceSink::DrainPass() {
  std::size_t drained = 0;
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    batch_.clear();
    drained += rings_[i]->PopBatch(batch_, kDrainBatch);
    for (const TraceEvent& event : batch_) Consume(assemblies_[i], event);
  }
  return drained;
}

void TraceSink::Consume(RingAssembly& assembly, const TraceEvent& event) {
  if (event.kind == TraceEvent::Kind::kShardEnd) {
    FinalizeShard(assembly, event);
    return;
  }
  ++stats_.events;
  if (!assembly.shard_open) {
    assembly.shard_open = true;
    assembly.file = TraceShardFile{};
    assembly.file.scenario_name = context_.scenario_name;
    assembly.file.fingerprint = context_.fingerprint;
    assembly.file.shard = event.shard;
    assembly.file.slots_per_day = context_.slots_per_day;
    assembly.file.days = context_.days;
  }
  SHEP_REQUIRE(assembly.file.shard == event.shard,
               "slot event from a different shard before the end marker");
  if (!assembly.node_open || assembly.node != event.node) {
    CloseNode(assembly);
    assembly.node_open = true;
    assembly.node = event.node;
  }
  if (assembly.file.cells.empty() ||
      assembly.file.cells.back().cell != event.cell) {
    SHEP_REQUIRE(event.cell < context_.cells.size(),
                 "slot event references a cell outside the run context");
    assembly.file.cells.push_back(context_.cells[event.cell]);
  }
  assembly.node_events.push_back(event);
}

void TraceSink::CloseNode(RingAssembly& assembly) {
  if (assembly.node_open && !assembly.node_events.empty()) {
    ApplyTracePolicy(assembly.node_events, assembly.file.slots_per_day,
                     TracePolicyConfig{}, assembly.file.records,
                     assembly.file.day_records);
  }
  assembly.node_events.clear();
  assembly.node_open = false;
}

void TraceSink::FinalizeShard(RingAssembly& assembly,
                              const TraceEvent& end_marker) {
  if (!assembly.shard_open) {
    // Every slot event of the shard was dropped; the file still exists so
    // the loss is on the record.
    assembly.file = TraceShardFile{};
    assembly.file.scenario_name = context_.scenario_name;
    assembly.file.fingerprint = context_.fingerprint;
    assembly.file.shard = end_marker.shard;
    assembly.file.slots_per_day = context_.slots_per_day;
    assembly.file.days = context_.days;
  }
  SHEP_REQUIRE(assembly.file.shard == end_marker.shard,
               "shard-end marker does not match the streaming shard");
  CloseNode(assembly);
  assembly.file.dropped_events = end_marker.dropped;

  stats_.dropped += end_marker.dropped;
  stats_.slot_records += assembly.file.records.size();
  stats_.day_records += assembly.file.day_records.size();
  ++stats_.shard_files;

  if (!options_.directory.empty()) {
    const std::filesystem::path path =
        std::filesystem::path(options_.directory) /
        TraceShardFile::FileName(assembly.file.fingerprint,
                                 assembly.file.shard);
    std::ofstream out(path);
    SHEP_REQUIRE(out.good(), "cannot open trace file for writing: " +
                                 path.string());
    assembly.file.Serialize(out);
    out.flush();
    SHEP_REQUIRE(out.good(), "trace file write failed: " + path.string());
  }

  assembly.shard_open = false;
  assembly.file = TraceShardFile{};
}

}  // namespace shep
