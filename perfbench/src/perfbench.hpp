// perfbench.hpp — shared pieces of the layered benchmark binary.
//
// The binary has four modes (main.cpp): `reference` replays a workload
// serially with spans off and prints its output digest, `rep` runs one
// cold, timed repetition, `layers` runs the per-layer pass, and `selftest`
// checks the helpers below.  run.py drives the modes and aggregates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/aggregate.hpp"
#include "fleet/scenario.hpp"
#include "fleet/shard_plan.hpp"
#include "trace/sink.hpp"

namespace perfbench {

// ---- Support (support.cpp) -------------------------------------------------

/// Steady-clock seconds since an arbitrary origin.
double NowSeconds();

/// CPU time and peak resident set of this process and its reaped children.
struct Usage {
  double cpu_s = 0.0;           ///< user + sys, self + children.
  double self_peak_mb = 0.0;    ///< ru_maxrss of this process.
  double child_peak_mb = 0.0;   ///< largest ru_maxrss among reaped children.
};
Usage ReadUsage();

/// Median of `values` (mean of the middle two for even sizes); 0 if empty.
double Median(std::vector<double> values);

/// FNV-1a 64 over `bytes`, continuing from `hash`.
std::uint64_t Fnv1a(std::string_view bytes,
                    std::uint64_t hash = 14695981039346656037ull);

/// Lower-case, zero-padded 16-digit hex.
std::string Hex64(std::uint64_t value);

/// Keeps the compiler from discarding a computed value.
template <class T>
inline void Keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Flat JSON object writer; keys appear in insertion order.
class Json {
 public:
  Json& Num(std::string_view key, double value);
  Json& Int(std::string_view key, std::uint64_t value);
  Json& Str(std::string_view key, std::string_view value);
  Json& Bool(std::string_view key, bool value);
  /// `json` must already be valid JSON.
  Json& Raw(std::string_view key, std::string_view json);
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(std::string_view text);

 private:
  void Key(std::string_view key);
  std::string body_;
};

/// In-memory span log: name, layer, start, end and the enclosing span.
/// Spans nest by call order on one thread; a disabled log records nothing
/// (Open returns 0), which is how the spans-off reference shares the
/// replay code.  Names and layers must be string literals.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(NowSeconds()) {}

  std::uint32_t Open(const char* name, const char* layer);
  void Close(std::uint32_t id);

  /// Runs `f` inside a span and returns its wall time in seconds (measured
  /// whether or not the log is enabled).
  template <class F>
  double Timed(const char* name, const char* layer, F&& f) {
    const std::uint32_t id = Open(name, layer);
    const double t0 = NowSeconds();
    f();
    const double dt = NowSeconds() - t0;
    Close(id);
    return dt;
  }

  std::size_t size() const { return spans_.size(); }
  /// [{"id":..,"parent":..,"name":..,"layer":..,"start_s":..,"end_s":..}]
  std::string ToJson() const;

 private:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    const char* name = "";
    const char* layer = "";
    double start_s = 0.0;
    double end_s = 0.0;
  };

  bool enabled_;
  double origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

// ---- Workloads (workloads.cpp) --------------------------------------------

enum class Workload {
  kFleetMix,
  kFleetCoord,
  kFleetFaultedTraced,
  kPaperSweep,
};

const char* WorkloadName(Workload workload);
/// Throws std::invalid_argument on an unknown name.
Workload ParseWorkload(const std::string& name);
inline bool IsFleet(Workload w) { return w != Workload::kPaperSweep; }

/// Nodes per shard of every fleet workload (FleetRunOptions' default).
inline constexpr std::size_t kShardSize = 8;
/// N of every fleet workload and of the micro-cost series.
inline constexpr int kSlotsPerDay = 48;

/// A predictor of `kind` as the fleet workloads deploy it: bench_fleet's
/// WCMA design (α 0.7, D 10, K 2) on all three arithmetic backends, library
/// defaults for the other kinds.
shep::PredictorSpec FleetDesign(shep::PredictorKind kind);

/// min(nproc, 4): the threads or worker processes a workload may use.
std::size_t BenchThreads();
/// Pool threads of `workload` (workers for fleet_coord).
std::size_t WorkloadParallelism(Workload workload);

/// The fleet campaign of a fleet workload; `tiny` shrinks it for smoke runs
/// and for the per-layer pass's stand-in stages.
shep::ScenarioSpec FleetSpec(Workload workload, std::uint64_t seed, bool tiny);

/// Sink options of fleet_faulted_traced: stats-only, block_on_full, every
/// ring sized to hold the plan's largest shard.
shep::TraceSinkOptions TracedSinkOptions(const shep::ShardPlan& plan);

/// Workload shape for the provenance record.
struct Shape {
  std::size_t nodes = 0;
  std::size_t cells = 0;
  std::size_t lanes = 0;
  std::size_t days = 0;
  std::size_t shards = 0;
  std::size_t traces = 0;     ///< paper traces (paper_sweep).
  std::size_t contexts = 0;   ///< (trace, N) sweep contexts (paper_sweep).
  std::size_t designs = 0;    ///< scored (α, D, K) designs (paper_sweep).
  std::size_t parallelism = 0;
  std::string ToJson() const;
};

/// One cold, timed repetition with spans off.
struct RepResult {
  std::vector<double> setup_s;  ///< one sample per set-up round.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;    ///< reassigned/duplicate/corrupt shards, drops.
  std::uint64_t digest = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t workers_spawned = 0;
  std::uint64_t frames_accepted = 0;
  std::uint64_t shards_reassigned = 0;
  std::uint64_t duplicate_frames = 0;
  std::uint64_t corrupt_frames = 0;
  std::string ToJson() const;
};
RepResult RunRep(Workload workload, std::uint64_t seed, bool tiny);

/// Per-layer metric value with its unit and where it was measured.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string source;
};
/// Metrics keep the first value written under a name.
class Metrics {
 public:
  void Put(const std::string& name, double value, const std::string& unit,
           const std::string& source);
  double Get(const std::string& name) const { return values_.at(name).value; }
  std::string ToJson() const;

 private:
  std::map<std::string, Metric> values_;
};

/// The serial stage-by-stage replay: the per-layer pass's pipeline and, with
/// a disabled log, the spans-off correctness reference.  Stage metrics go
/// into `metrics` (when non-null) under `source`.
struct ReplayResult {
  std::uint64_t digest = 0;
  Shape shape;
  double serial_stage_s = 0.0;  ///< synthesis + simulation, or sweep work.
};
ReplayResult Replay(Workload workload, std::uint64_t seed, bool tiny,
                    SpanLog& log, Metrics* metrics, const std::string& source,
                    bool price_telemetry);

/// Digest of a fleet summary: its CSV plus every accumulator's exact text
/// (hexfloat moments and integer totals).
std::uint64_t FleetDigest(const shep::FleetSummary& summary,
                          const std::string& csv);

// ---- Per-layer pass (layers.cpp) ------------------------------------------

/// Runs the per-layer pass and returns its JSON record; spans go to
/// `spans_path`.  Sets `*failures` to the spans-off repetitions whose
/// digest disagreed with the replay or whose telemetry dropped events.
std::string RunLayerPass(Workload workload, std::uint64_t seed, bool tiny,
                         double budget_s, const std::string& spans_path,
                         std::uint64_t* failures);

}  // namespace perfbench
