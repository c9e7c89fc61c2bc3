// sink.hpp — the end of fleet telemetry: each shard's node traces
// distilled into one selectively-persisted trace file.
//
// Tracing runs on the pool worker that simulates the shard.  Each worker
// owns one TraceSink::ShardWriter.  Its NodeTraceProbe pushes every slot
// of the running node into the writer's TraceDistiller (trace/policy.hpp),
// whose delay line of a few slots appends each slot to the shard's
// TraceShardFile as soon as the selective-persistence policy has decided
// it; when the node ends, the writer flushes the delay line; when the
// shard ends, it writes that file and adds its counts to the sink's
// stats.  No slot crosses a thread, so every slot is kept and a trace file
// is a pure function of its shard: the same bytes at any thread count,
// shard grouping or process.
//
// The sink is strictly observational: the runner's results do not depend
// on it (pinned by tests/test_trace_sink.cpp).
//
// Threading contract (what keeps this TSan-clean):
//  * BeginRun is called by the run driver, never concurrently with a
//    shard;
//  * a ShardWriter is used by one worker at a time (the ParallelForWorker
//    worker-id contract), and writes only its own shard's file;
//  * the stats are the only state writers share, behind one mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "trace/policy.hpp"
#include "trace/probe.hpp"
#include "trace/trace_file.hpp"

namespace shep {

/// Sink configuration, carried by FleetRunOptions.
struct TraceSinkOptions {
  /// Where per-shard trace files land; created if missing.  Empty keeps
  /// the whole pipeline running but skips the file writes — the mode
  /// the benchmarks use to price tracing overhead without disk noise.
  std::string directory;
  /// No effect: a traced run keeps every event on the worker that
  /// observed it, so there is no buffer to size.  Kept so callers that
  /// set it still compile.
  std::size_t ring_capacity = 1 << 14;
  /// No effect, like ring_capacity: a traced run never waits or drops.
  bool block_on_full = false;
};

/// What one run hands the sink before its shards start: the identity and
/// shape every trace file of the run shares.
struct TraceRunContext {
  std::string scenario_name;
  std::uint64_t fingerprint = 0;
  std::uint32_t slots_per_day = 0;
  std::uint32_t days = 0;
  /// Cell metadata for the whole matrix, ascending by cell id; each shard
  /// file embeds the subset its nodes touch.
  std::vector<TraceCellInfo> cells;
};

/// Lifetime totals over every shard a writer has ended.
struct TraceSinkStats {
  std::uint64_t events = 0;        ///< slot events the probes observed.
  std::uint64_t dropped = 0;       ///< always 0: every event is kept.
  std::uint64_t slot_records = 0;  ///< full-resolution records persisted.
  std::uint64_t day_records = 0;   ///< coarse summaries persisted.
  std::uint64_t shard_files = 0;   ///< trace files finalized.
};

class TraceSink {
 public:
  /// One pool worker's tracing state: the distiller its probes feed with
  /// the running node's slots, and the file of the shard it is running.  A
  /// worker runs its shards one after another, so a writer per worker is
  /// race-free, and its delay line and file vectors are reused across
  /// every node it traces.  The distiller's state is written on every
  /// slot, and the runner keeps its writers side by side in one vector,
  /// so each writer starts on its own cache line.
  class alignas(64) ShardWriter {
   public:
    /// Starts shard `shard` of `sink`'s current run (after BeginRun), and
    /// points the distiller at this writer's file: a writer may be moved
    /// between shards, never inside one.
    void BeginShard(TraceSink& sink, std::uint64_t shard);
    /// Starts node `node` of cell `cell`; the probe distills its slots.
    [[nodiscard]] NodeTraceProbe Probe(std::uint64_t node, std::uint64_t cell);
    /// Flushes the node's last slots and day into the shard file.
    void EndNode();
    /// Writes the shard file (when the sink has a directory) and adds the
    /// shard's counts to the sink's stats.
    void EndShard();

   private:
    TraceSink* sink_ = nullptr;
    TraceDistiller distiller_;
    std::uint64_t shard_events_ = 0;
    TraceShardFile file_;
  };

  explicit TraceSink(TraceSinkOptions options = {});

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  const TraceSinkOptions& options() const { return options_; }

  /// Installs the run's identity, creating the output directory if
  /// needed.  Call before the run's first shard; a sink can serve
  /// successive runs.
  void BeginRun(const TraceRunContext& context);

  [[nodiscard]] TraceSinkStats stats() const;

 private:
  const TraceSinkOptions options_;
  TraceRunContext context_;
  mutable std::mutex mutex_;
  TraceSinkStats stats_;  ///< guarded by mutex_.
};

}  // namespace shep
