// sink.hpp — the streaming end of fleet telemetry: per-worker rings in,
// selectively-persisted per-shard trace files out.
//
// A TraceSink owns one TraceRing per fleet worker and a single background
// drain thread.  Workers push raw slot events while shards run; the drain
// pops them concurrently, buffers each node's sequence, applies the
// selective-persistence policy when the node completes, and writes one
// trace file per shard when the shard-end marker arrives.  Because every
// shard executes on exactly one worker (ParallelForWorker serializes
// iterations per worker id), each ring carries whole shards back-to-back
// and the drain never has to reorder anything.
//
// The sink is strictly observational: the runner's results do not depend
// on it (pinned by tests/test_trace_sink.cpp), and a full ring drops
// events rather than stalling the simulation — with the drops counted in
// the shard's file footer and the run stats.
//
// Threading contract (what keeps this TSan-clean):
//  * BeginRun / EnsureWorkers / EndShard / Flush are called by the run
//    driver only, never concurrently with each other;
//  * ring(worker) is touched by exactly one producer thread at a time
//    (the ParallelForWorker worker-id contract);
//  * everything else — assemblies, stats, file writes — belongs to the
//    drain thread, with the small shared state behind one mutex.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace/record.hpp"
#include "trace/ring_buffer.hpp"
#include "trace/trace_file.hpp"

namespace shep {

/// Sink configuration, carried by FleetRunOptions.
struct TraceSinkOptions {
  /// Where per-shard trace files land; created if missing.  Empty keeps
  /// the whole pipeline running but skips the file writes — the mode
  /// bench_fleet uses to price tracing overhead without disk noise.
  std::string directory;
  /// Per-worker ring capacity in events (rounded up to a power of two).
  std::size_t ring_capacity = 1 << 14;
  /// When true, probes spin-yield on a full ring instead of dropping the
  /// event.  Default off: production tracing never blocks the simulation
  /// (a full ring drops AND counts).  bench_fleet turns it on so the
  /// traced run it prices is complete — a drain briefly lagging sixteen
  /// hot producers shows up as measured backpressure, not missing events.
  bool block_on_full = false;
  /// How long the drain sleeps when every ring comes up empty.
  std::uint32_t drain_idle_micros = 200;
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

/// Lifetime totals, readable after Flush().  `events + dropped` equals
/// exactly the number of slots the probes attempted to push.
struct TraceSinkStats {
  std::uint64_t events = 0;        ///< slot events drained from the rings.
  std::uint64_t dropped = 0;       ///< refusals reported by shard markers.
  std::uint64_t slot_records = 0;  ///< full-resolution records persisted.
  std::uint64_t day_records = 0;   ///< coarse summaries persisted.
  std::uint64_t shard_files = 0;   ///< trace files finalized.
  /// Shard-end markers EndShard could not deliver because the drain was
  /// stopping or never started (the marker's drops still land in
  /// `dropped`); those shards produce no trace file.
  std::uint64_t lost_shards = 0;
};

class TraceSink {
 public:
  explicit TraceSink(TraceSinkOptions options = {});
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  const TraceSinkOptions& options() const { return options_; }

  /// Installs the run's identity (creating the output directory on first
  /// need) and starts the drain thread if it is not running.  Call before
  /// the run's first shard; a sink can serve successive runs.
  void BeginRun(const TraceRunContext& context);

  /// Guarantees at least `workers` rings exist.  Not concurrent with
  /// producers — call between BeginRun and the parallel section.
  void EnsureWorkers(std::size_t workers);

  /// The ring worker `worker` pushes onto.  Stable for the whole run.
  TraceRing& ring(std::size_t worker);

  /// Marks shard `shard` complete on `worker`'s ring, carrying the probes'
  /// refusal count.  Retries until the marker lands — shard ends are rare
  /// and must never be lost, unlike slot events — EXCEPT when the sink is
  /// stopping (or the drain never started): then no one will ever make
  /// room, so the call gives up, adds `dropped` to stats().dropped and
  /// counts the shard in stats().lost_shards instead of spinning forever.
  void EndShard(std::size_t worker, std::uint64_t shard,
                std::uint64_t dropped);

  /// Blocks until every pushed event has been drained and every shard file
  /// finalized.  Producers must be quiescent (the parallel section has
  /// joined).  After Flush, stats() covers everything pushed so far.
  void Flush();

  [[nodiscard]] TraceSinkStats stats() const;

 private:
  /// Drain-side per-ring state: the shard currently streaming off that
  /// ring and the node whose slots are being buffered for the policy.
  struct RingAssembly {
    bool shard_open = false;
    bool node_open = false;
    std::uint64_t node = 0;
    std::vector<TraceEvent> node_events;
    TraceShardFile file;
  };

  void DrainLoop();
  /// One sweep over all rings; returns drained event count.
  std::size_t DrainPass();
  void Consume(RingAssembly& assembly, const TraceEvent& event);
  void CloseNode(RingAssembly& assembly);
  void FinalizeShard(RingAssembly& assembly, const TraceEvent& end_marker);

  const TraceSinkOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable drain_cv_;   ///< wakes the drain thread.
  std::condition_variable flush_cv_;   ///< signals flush completion.
  TraceRunContext context_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
  std::vector<RingAssembly> assemblies_;
  /// DrainPass's pop buffer, reserved once to the batch size so a pass
  /// never allocates.
  std::vector<TraceEvent> batch_;
  TraceSinkStats stats_;
  bool flush_requested_ = false;
  bool stopping_ = false;
  bool thread_running_ = false;
  std::thread drain_;
};

}  // namespace shep
