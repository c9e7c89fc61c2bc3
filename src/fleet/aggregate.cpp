#include "fleet/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "report/table.hpp"

namespace shep {

namespace {

/// Largest histogram bin count a serialized partial may name.  Every
/// histogram a CellAccumulator builds has at most a few hundred bins; the
/// cap exists so a garbled count can never size an allocation.
constexpr std::uint64_t kMaxSerializedBins = 1 << 16;

}  // namespace

void StreamingMoments::Add(double x) {
  if (count == 0) {
    min = x;
    max = x;
  } else {
    min = std::min(min, x);
    max = std::max(max, x);
  }
  WelfordMoments::Add(x);
}

void StreamingMoments::Merge(const StreamingMoments& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  // Chan et al.: combine two partial (count, mean, M2) triples exactly as
  // if the points had been seen in one pass.
  const double na = static_cast<double>(count);
  const double nb = static_cast<double>(other.count);
  const double delta = other.mean - mean;
  const double n = na + nb;
  mean += delta * nb / n;
  m2 += other.m2 + delta * delta * na * nb / n;
  count += other.count;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

void StreamingMoments::Serialize(std::ostream& os) const {
  os << "moments " << count << ' ';
  serdes::WriteDouble(os, mean);
  os << ' ';
  serdes::WriteDouble(os, m2);
  os << ' ';
  serdes::WriteDouble(os, min);
  os << ' ';
  serdes::WriteDouble(os, max);
  os << '\n';
}

StreamingMoments StreamingMoments::Deserialize(std::istream& is) {
  serdes::ExpectToken(is, "moments");
  StreamingMoments m;
  m.count = static_cast<std::size_t>(serdes::ReadU64(is));
  m.mean = serdes::ReadDouble(is);
  m.m2 = serdes::ReadDouble(is);
  // Add/Merge can only produce m2 >= 0 (WelfordMoments relies on that to
  // skip clamping in variance()); a negative value here is a corrupted or
  // mis-produced partial and would surface as NaN stddevs downstream, so
  // reject it at the process boundary like any other malformed token.
  SHEP_REQUIRE(m.m2 >= 0.0,
               "moments m2 must be non-negative in a serialized partial");
  m.min = serdes::ReadDouble(is);
  m.max = serdes::ReadDouble(is);
  return m;
}

FixedHistogram::FixedHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins, 0) {
  SHEP_REQUIRE(hi > lo, "histogram range must be non-empty");
  SHEP_REQUIRE(bins >= 1, "histogram needs at least one bin");
}

void FixedHistogram::Add(double x) {
  // NaN is unordered: it would pass std::clamp unchanged and the cast to
  // std::size_t would be undefined behaviour.  Tally it separately instead
  // of corrupting a bin.
  if (std::isnan(x)) {
    ++nan_count_;
    return;
  }
  const double t = (x - lo_) / (hi_ - lo_);
  const auto last = static_cast<double>(bins_.size() - 1);
  const double raw = std::clamp(t * static_cast<double>(bins_.size()), 0.0,
                                last);
  ++bins_[static_cast<std::size_t>(raw)];
  ++total_;
}

void FixedHistogram::Merge(const FixedHistogram& other) {
  SHEP_REQUIRE(bins_.size() == other.bins_.size() && lo_ == other.lo_ &&
                   hi_ == other.hi_,
               "histograms must share geometry to merge");
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  total_ += other.total_;
  nan_count_ += other.nan_count_;
}

void FixedHistogram::Serialize(std::ostream& os) const {
  os << "hist ";
  serdes::WriteDouble(os, lo_);
  os << ' ';
  serdes::WriteDouble(os, hi_);
  os << ' ' << bins_.size() << ' ' << nan_count_;
  // Sparse non-zero bins ("index:count"): cells concentrate their mass in
  // a handful of bins, so this keeps partials small; total_ is recomputed
  // on parse rather than trusted.
  std::size_t nonzero = 0;
  for (std::uint64_t b : bins_) nonzero += b != 0 ? 1 : 0;
  os << ' ' << nonzero;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i] != 0) os << ' ' << i << ':' << bins_[i];
  }
  os << '\n';
}

FixedHistogram FixedHistogram::Deserialize(std::istream& is) {
  serdes::ExpectToken(is, "hist");
  const double lo = serdes::ReadDouble(is);
  const double hi = serdes::ReadDouble(is);
  const std::uint64_t bin_count = serdes::ReadU64(is);
  SHEP_REQUIRE(bin_count <= kMaxSerializedBins,
               "histogram bin count exceeds the serialized cap");
  FixedHistogram hist(lo, hi, static_cast<std::size_t>(bin_count));
  hist.nan_count_ = serdes::ReadU64(is);
  const std::uint64_t nonzero = serdes::ReadU64(is);
  bool any = false;
  std::size_t last = 0;
  for (std::uint64_t n = 0; n < nonzero; ++n) {
    std::string token;
    is >> token;
    const auto colon = token.find(':');
    SHEP_REQUIRE(colon != std::string::npos && colon > 0 &&
                     colon + 1 < token.size(),
                 "malformed histogram bin entry: " + token);
    const auto index = ParseInt(token.substr(0, colon));
    const auto count = ParseInt(token.substr(colon + 1));
    // ParseInt accepts a sign, so reject non-positive counts explicitly —
    // a negative count cast to uint64 would fabricate a huge bin mass.
    SHEP_REQUIRE(index.has_value() && count.has_value() && *index >= 0 &&
                     *count > 0,
                 "malformed histogram bin entry: " + token);
    const auto i = static_cast<std::size_t>(*index);
    SHEP_REQUIRE(i < hist.bins_.size(),
                 "histogram bin index out of range: " + token);
    // Strictly ascending indices: a duplicate would overwrite the bin yet
    // double-add into total_, leaving the two inconsistent.
    SHEP_REQUIRE(!any || i > last,
                 "histogram bin entries must be strictly ascending: " +
                     token);
    any = true;
    last = i;
    hist.bins_[i] = static_cast<std::uint64_t>(*count);
    hist.total_ += static_cast<std::uint64_t>(*count);
  }
  return hist;
}

double FixedHistogram::Quantile(double q) const {
  SHEP_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  SHEP_CHECK(total_ > 0, "quantile of an empty histogram");
  const double target = q * static_cast<double>(total_);
  std::uint64_t seen = 0;
  const double width = (hi_ - lo_) / static_cast<double>(bins_.size());
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i] == 0) continue;
    const auto next = static_cast<double>(seen + bins_[i]);
    if (next >= target) {
      // Interpolate inside the bin by the fraction of its mass consumed.
      const double inside =
          (target - static_cast<double>(seen)) / static_cast<double>(bins_[i]);
      return lo_ + (static_cast<double>(i) + std::clamp(inside, 0.0, 1.0)) *
                       width;
    }
    seen += bins_[i];
  }
  return hi_;
}

CellAccumulator::CellAccumulator()
    : violation_hist(0.0, 1.0, 256),
      cycles_hist(0.0, kMaxCyclesPerWakeup, 500) {}

void CellAccumulator::Add(const NodeSimResult& result) {
  violation_rate.Add(result.violation_rate);
  mean_duty.Add(result.mean_duty);
  wasted_fraction.Add(
      result.harvested_j > 0.0 ? result.overflow_j / result.harvested_j : 0.0);
  min_soc.Add(result.min_level_fraction);
  // A node with no in-ROI slots has no measured accuracy; averaging its 0.0
  // placeholder would fake a perfect MAPE, so such nodes are left out (the
  // mape moments keep their own count).
  if (result.mape_points > 0) mape.Add(result.mape);
  violation_hist.Add(result.violation_rate);
  violations += result.violations;
  scored_slots += result.slots;
  // Same own-count discipline for the MCU-cost channel: only nodes whose
  // predictor modelled its cost contribute.
  if (result.has_compute_cost && result.compute.predictions > 0) {
    const double cyc = result.compute.cycles_per_prediction();
    cycles_per_wakeup.Add(cyc);
    ops_per_wakeup.Add(result.compute.ops_per_prediction());
    cycles_hist.Add(cyc);
  }
  // Graceful-degradation channel: only fault-injected nodes contribute, so
  // healthy cells keep availability.count == 0 and render no fault columns.
  if (result.faulted) {
    const double up = static_cast<double>(result.slots);
    const double down = static_cast<double>(result.downtime_slots);
    // The kernel guarantees up + down > 0 even for an always-dark node.
    availability.Add(up / (up + down));
    downtime_slots += result.downtime_slots;
    recoveries += result.recoveries;
    // A node that never recovered inside the scored horizon has no
    // measured re-warm-up cost; averaging a 0.0 placeholder would fake a
    // perfect recovery, so such nodes stay out (own count again).
    if (result.post_recovery_slots > 0) {
      post_recovery_violation_rate.Add(
          static_cast<double>(result.post_recovery_violations) /
          static_cast<double>(result.post_recovery_slots));
    }
  }
}

void CellAccumulator::Merge(const CellAccumulator& other) {
  violation_rate.Merge(other.violation_rate);
  mean_duty.Merge(other.mean_duty);
  wasted_fraction.Merge(other.wasted_fraction);
  min_soc.Merge(other.min_soc);
  mape.Merge(other.mape);
  violation_hist.Merge(other.violation_hist);
  violations += other.violations;
  scored_slots += other.scored_slots;
  cycles_per_wakeup.Merge(other.cycles_per_wakeup);
  ops_per_wakeup.Merge(other.ops_per_wakeup);
  cycles_hist.Merge(other.cycles_hist);
  availability.Merge(other.availability);
  post_recovery_violation_rate.Merge(other.post_recovery_violation_rate);
  downtime_slots += other.downtime_slots;
  recoveries += other.recoveries;
}

void CellAccumulator::Serialize(std::ostream& os) const {
  violation_rate.Serialize(os);
  mean_duty.Serialize(os);
  wasted_fraction.Serialize(os);
  min_soc.Serialize(os);
  mape.Serialize(os);
  cycles_per_wakeup.Serialize(os);
  ops_per_wakeup.Serialize(os);
  availability.Serialize(os);
  post_recovery_violation_rate.Serialize(os);
  violation_hist.Serialize(os);
  cycles_hist.Serialize(os);
  os << "totals " << violations << ' ' << scored_slots << ' '
     << downtime_slots << ' ' << recoveries << '\n';
}

CellAccumulator CellAccumulator::Deserialize(std::istream& is) {
  CellAccumulator acc;
  acc.violation_rate = StreamingMoments::Deserialize(is);
  acc.mean_duty = StreamingMoments::Deserialize(is);
  acc.wasted_fraction = StreamingMoments::Deserialize(is);
  acc.min_soc = StreamingMoments::Deserialize(is);
  acc.mape = StreamingMoments::Deserialize(is);
  acc.cycles_per_wakeup = StreamingMoments::Deserialize(is);
  acc.ops_per_wakeup = StreamingMoments::Deserialize(is);
  acc.availability = StreamingMoments::Deserialize(is);
  acc.post_recovery_violation_rate = StreamingMoments::Deserialize(is);
  acc.violation_hist = FixedHistogram::Deserialize(is);
  acc.cycles_hist = FixedHistogram::Deserialize(is);
  serdes::ExpectToken(is, "totals");
  acc.violations = serdes::ReadU64(is);
  acc.scored_slots = serdes::ReadU64(is);
  acc.downtime_slots = serdes::ReadU64(is);
  acc.recoveries = serdes::ReadU64(is);
  return acc;
}

namespace {

/// Builds the per-cell table once; ToTable/ToCsv differ only in rendering
/// and number formatting (percentages for eyeballs, raw ratios for CSV).
TableBuilder BuildSummaryTable(const FleetSummary& summary, bool csv) {
  auto fmt = [&](double v) {
    return csv ? FormatFixed(v, 6) : FormatPercent(v);
  };
  // Histogram quantiles interpolate inside a bin, so a cell whose nodes all
  // share one value could report p50 slightly past the observed extrema;
  // clamp to the true range tracked by the moments.
  auto quantile = [](const CellAccumulator& s, double q) {
    return std::clamp(s.violation_hist.Quantile(q), s.violation_rate.min,
                      s.violation_rate.max);
  };
  TableBuilder table(csv ? ""
                         : summary.scenario_name + ": " +
                               std::to_string(summary.node_count) +
                               " nodes, " + std::to_string(summary.days) +
                               " days, N=" +
                               std::to_string(summary.slots_per_day));
  // Cycle quantiles share the extrema-clamp rationale with the violation
  // quantiles above.
  auto cycles_p95 = [](const CellAccumulator& s) {
    return std::clamp(s.cycles_hist.Quantile(0.95), s.cycles_per_wakeup.min,
                      s.cycles_per_wakeup.max);
  };
  // MCU cost columns are cycle/op counts, not ratios: plain fixed-point
  // numbers in both renderings, "n/a" for cells of uncosted (float)
  // predictors.
  auto cost = [&](const CellAccumulator& s, double v) {
    return s.has_compute_cost() ? FormatFixed(v, 1) : std::string("n/a");
  };
  // Fault columns appear only when some cell actually ran under fault
  // injection; a healthy run's table and CSV stay byte-identical to
  // pre-fault output (pinned by the zero-fault golden fixture).
  bool any_faulted = false;
  for (const CellAccumulator& s : summary.stats) {
    any_faulted = any_faulted || s.has_fault_stats();
  }
  std::vector<std::string> columns = {
      "site", "predictor", "storage_j", "nodes", "viol_mean", "viol_p50",
      "viol_p95", "viol_max", "mean_duty", "wasted_harvest", "min_soc",
      "mape", "cyc_mean", "cyc_p95", "ops_mean"};
  if (any_faulted) {
    columns.insert(columns.end(), {"availability", "downtime_slots",
                                   "recoveries", "postrec_viol"});
  }
  table.Columns(columns);
  std::size_t last_site = 0;
  for (std::size_t i = 0; i < summary.cells.size(); ++i) {
    const ScenarioCell& cell = summary.cells[i];
    const CellAccumulator& s = summary.stats[i];
    if (!csv && i > 0 && cell.site_index != last_site) table.AddSeparator();
    last_site = cell.site_index;
    std::vector<std::string> row = {
        cell.site_code, cell.predictor_label,
        FormatFixed(cell.storage_j, 0), std::to_string(s.nodes()),
        fmt(s.violation_rate.mean), fmt(quantile(s, 0.50)),
        fmt(quantile(s, 0.95)),
        fmt(s.violation_rate.max), fmt(s.mean_duty.mean),
        fmt(s.wasted_fraction.mean),
        // The fleet-wide storage low-water mark: the mean across
        // nodes of each node's minimum SoC fraction, recorded per
        // node since the first runner but surfaced here.
        fmt(s.min_soc.mean),
        // No node of the cell had an in-ROI slot: accuracy was
        // not measured, which is not the same as perfect.
        s.mape.valid() ? fmt(s.mape.mean) : std::string("n/a"),
        cost(s, s.cycles_per_wakeup.mean),
        cost(s, s.has_compute_cost() ? cycles_p95(s) : 0.0),
        cost(s, s.ops_per_wakeup.mean)};
    if (any_faulted) {
      row.push_back(s.has_fault_stats() ? fmt(s.availability.mean)
                                        : std::string("n/a"));
      row.push_back(std::to_string(s.downtime_slots));
      row.push_back(std::to_string(s.recoveries));
      // A cell whose nodes never recovered in-horizon has no measured
      // re-warm-up cost.
      row.push_back(s.post_recovery_violation_rate.valid()
                        ? fmt(s.post_recovery_violation_rate.mean)
                        : std::string("n/a"));
    }
    table.AddRow(row);
  }
  return table;
}

}  // namespace

std::string FleetSummary::ToTable() const {
  return BuildSummaryTable(*this, /*csv=*/false).ToString();
}

std::string FleetSummary::ToCsv() const {
  return BuildSummaryTable(*this, /*csv=*/true).ToCsv();
}

}  // namespace shep
