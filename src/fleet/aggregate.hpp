// aggregate.hpp — streaming, mergeable summary statistics for fleet runs.
//
// A fleet run produces one NodeSimResult per node; keeping them all would
// bound the fleet size by memory, so each scenario cell is reduced on the
// fly into a CellAccumulator built from two single-pass primitives:
//
//  * StreamingMoments — count/mean/M2/min/max via Welford's update, merged
//    across shards with Chan et al.'s parallel combination;
//  * FixedHistogram   — fixed-range bin counts (violation rate lives in
//    [0, 1]) from which p50/p95 are interpolated.
//
// Both are MERGEABLE: shards accumulate privately with no locking and the
// runner folds the shard accumulators afterwards in shard order, which is
// what makes the summary bit-identical at any thread count (the fold order
// never depends on scheduling).  Merge is exactly associative on every
// integer field; on the floating-point fields it is associative up to
// rounding, which tests/test_fleet.cpp pins down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/mathutil.hpp"
#include "fleet/scenario.hpp"
#include "mgmt/node_sim.hpp"

namespace shep {

/// Single-pass count/mean/variance/extrema accumulator: the shared
/// Welford core (common/mathutil.hpp — one implementation of the
/// numerically delicate recurrence in the tree) extended with extrema
/// tracking, cross-shard merging, and bit-exact serialization.
struct StreamingMoments : WelfordMoments {
  double min = 0.0;
  double max = 0.0;

  void Add(double x);
  void Merge(const StreamingMoments& other);

  bool valid() const { return count > 0; }

  /// Single-line text form; doubles rendered as hexfloats so the
  /// deserialized value is BIT-identical (the distributed merge path
  /// depends on it).
  void Serialize(std::ostream& os) const;
  [[nodiscard]] static StreamingMoments Deserialize(std::istream& is);
};

/// Fixed-range histogram with uniform bins; out-of-range values clamp to
/// the edge bins.  NaN samples — unordered under clamp, so binning one
/// would be undefined behaviour — are tallied into a dedicated NaN count
/// that merges and serializes like the bins but never distorts quantiles.
/// Mergeable by bin-wise addition.
class FixedHistogram {
 public:
  FixedHistogram(double lo, double hi, std::size_t bins);

  void Add(double x);
  void Merge(const FixedHistogram& other);

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  /// In-bin sample mass (excludes NaN samples).
  std::uint64_t total() const { return total_; }
  /// Samples rejected as NaN; kept out of total() so Quantile's mass
  /// bookkeeping stays consistent.
  std::uint64_t nan_count() const { return nan_count_; }
  const std::vector<std::uint64_t>& bins() const { return bins_; }

  /// Quantile q in [0, 1], linearly interpolated inside the holding bin.
  /// Requires total() > 0.
  double Quantile(double q) const;

  /// Single-line text form (geometry + sparse non-zero bins); bit-exact
  /// round trip via Deserialize.
  void Serialize(std::ostream& os) const;
  [[nodiscard]] static FixedHistogram Deserialize(std::istream& is);

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
  std::uint64_t nan_count_ = 0;
};

/// Everything a scenario cell reports, reduced over its nodes.
struct CellAccumulator {
  /// Upper edge of the per-wake-up cycle histogram.  Division dominates
  /// the routine (~560 cycles each, K+2 divisions per wake-up), so the
  /// range covers K beyond 30 at 40-cycle resolution; costlier outliers
  /// clamp into the top bin (the p95 is additionally clamped to the true
  /// extrema tracked by the moments when rendered).
  static constexpr double kMaxCyclesPerWakeup = 20000.0;

  CellAccumulator();

  StreamingMoments violation_rate;   ///< per-node brown-out rate.
  StreamingMoments mean_duty;        ///< per-node achieved duty cycle.
  StreamingMoments wasted_fraction;  ///< per-node overflow_j / harvested_j.
  StreamingMoments min_soc;          ///< per-node storage low-water mark.
  StreamingMoments mape;             ///< per-node prediction MAPE.
  FixedHistogram violation_hist;     ///< violation-rate distribution.
  std::uint64_t violations = 0;      ///< summed brown-out slots.
  std::uint64_t scored_slots = 0;    ///< summed post-warm-up slots.
  /// MCU-cost channel: per-node mean predict cycles / ops per wake-up,
  /// fed only by nodes whose predictor reports compute cost (fixed-point
  /// and VM backends).  The moments keep their own count, so cells of
  /// float predictors stay empty ("n/a") rather than faking zero cost.
  StreamingMoments cycles_per_wakeup;
  StreamingMoments ops_per_wakeup;
  FixedHistogram cycles_hist;        ///< cycles-per-wake-up distribution.
  /// Graceful-degradation channel, fed only by fault-injected nodes
  /// (NodeSimResult.faulted) — the same own-count discipline as the MCU
  /// cost channel, which is what keeps healthy runs' tables and CSV
  /// byte-identical to pre-fault output (no fault columns at all).
  StreamingMoments availability;     ///< per-node up / (up + downtime).
  StreamingMoments post_recovery_violation_rate;  ///< re-warm-up cost.
  std::uint64_t downtime_slots = 0;  ///< summed post-warm-up outage slots.
  std::uint64_t recoveries = 0;      ///< summed outage→up transitions.

  void Add(const NodeSimResult& result);
  void Merge(const CellAccumulator& other);

  std::size_t nodes() const { return violation_rate.count; }
  /// True when at least one node of the cell reported compute cost.
  bool has_compute_cost() const { return cycles_per_wakeup.valid(); }
  /// True when at least one node of the cell ran under fault injection.
  bool has_fault_stats() const { return availability.valid(); }

  /// Multi-line text form of every field (moments, histograms incl. NaN
  /// counts, integer totals), bit-exact through Deserialize; this is what
  /// lets a FleetPartial cross a process boundary and still merge
  /// bit-identically to the single-process run.
  void Serialize(std::ostream& os) const;
  [[nodiscard]] static CellAccumulator Deserialize(std::istream& is);
};

/// The deterministic output of a fleet run: the expanded cells plus one
/// accumulator per cell (parallel vectors).  Runtime metadata (threads,
/// wall time) deliberately lives elsewhere (FleetRunStats) so this value is
/// comparable across runs.
struct FleetSummary {
  std::string scenario_name;
  std::size_t node_count = 0;
  std::size_t days = 0;
  int slots_per_day = 0;
  std::vector<ScenarioCell> cells;
  std::vector<CellAccumulator> stats;

  /// Aligned text table (report/table layer), one row per cell.
  std::string ToTable() const;

  /// CSV with the same rows in machine-readable form.
  std::string ToCsv() const;
};

}  // namespace shep
