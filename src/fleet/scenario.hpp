// scenario.hpp — declarative fleet scenarios and their combinatorial
// expansion.
//
// A ScenarioSpec describes a whole deployment campaign in one value: which
// sites (weather regimes), which predictor designs, which storage tiers,
// how many replica nodes per combination, and the horizon.  ExpandScenario
// turns that description into the concrete matrix the runner executes —
// one ScenarioCell per (site × predictor × storage) combination and one
// FleetNodeConfig per simulated node, each with seeds derived
// deterministically from the scenario seed so that the entire fleet is
// reproducible from a single number.
//
// Seeding follows a paired design: the weather replica seed depends only on
// (site, replica), so every predictor and storage tier inside a site faces
// the *same* weather draws and cell-to-cell differences measure the design,
// not sampling noise.  The per-node seed additionally depends on the cell
// and drives node-local variation (initial storage level jitter), modelling
// a heterogeneous fleet deployed at different times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/adaptive.hpp"
#include "core/ar.hpp"
#include "core/baselines.hpp"
#include "core/ewma.hpp"
#include "core/predictor.hpp"
#include "core/wcma.hpp"
#include "fleet/faults.hpp"
#include "hw/costed_fixed.hpp"
#include "hw/vm_predictor.hpp"
#include "mgmt/node_sim.hpp"

namespace shep {

namespace serdes {
class Fnv1a;
}  // namespace serdes

/// Predictor designs a fleet can deploy.  The three WCMA entries are the
/// same algorithm on three arithmetic backends: double-precision reference
/// (kWcma), the Q16.16 fixed-point MCU build (kWcmaFixed), and the routine
/// executed instruction-by-instruction on the cycle-counted MicroVm
/// (kWcmaVm).  The two MCU backends implement ComputeCostReporter, so their
/// cells additionally report per-wake-up cycle/op cost in fleet summaries.
enum class PredictorKind {
  kWcma,
  kWcmaFixed,
  kWcmaVm,
  kEwma,
  kAr,
  kAdaptiveWcma,
  kPersistence,
  kPreviousDay,
};

/// Short display name ("WCMA", "FixedWCMA", "VmWCMA", "EWMA", ...).
const char* PredictorKindName(PredictorKind kind);

/// One predictor design: a kind plus the parameters that kind reads.
struct PredictorSpec {
  PredictorKind kind = PredictorKind::kWcma;
  WcmaParams wcma;                ///< kWcma / kWcmaFixed / kWcmaVm.
  double ewma_weight = 0.5;       ///< kEwma (Kansal et al. default).
  ArParams ar;                    ///< kAr.
  AdaptiveWcmaParams adaptive;    ///< kAdaptiveWcma.

  /// Instantiates a fresh predictor for a deployment with N slots per day
  /// (WithPredictor's object, moved to the heap).
  std::unique_ptr<Predictor> Make(int slots_per_day) const;

  /// Rejects parameters WithPredictor would throw on, so a malformed design is
  /// caught by ScenarioSpec::Validate before any worker process is spawned
  /// or any shard runs.
  void Validate(int slots_per_day) const;

  /// Cell label for reports: the kind name.  When a scenario lists the same
  /// kind more than once (e.g. two WCMA tunings), ExpandScenario suffixes
  /// "#<index>" so cells stay distinguishable in tables and CSV.
  std::string Label() const { return PredictorKindName(kind); }
};

/// The one place that names each kind's concrete predictor type and its
/// constructor arguments: builds the predictor `spec` describes on the
/// stack, as its concrete `final` class, and returns f(predictor).  A
/// generic `f` is instantiated once per kind, so a kernel called inside it
/// dispatches statically (mgmt/node_sim_kernel.hpp); Make() moves the same
/// object to the heap for callers that want a Predictor.
template <class F>
auto WithPredictor(const PredictorSpec& spec, int slots_per_day, F&& f) {
  switch (spec.kind) {
    case PredictorKind::kWcma: {
      Wcma predictor(spec.wcma, slots_per_day);
      return f(predictor);
    }
    case PredictorKind::kWcmaFixed: {
      CostedFixedWcma predictor(spec.wcma, slots_per_day);
      return f(predictor);
    }
    case PredictorKind::kWcmaVm: {
      VmWcmaPredictor predictor(spec.wcma, slots_per_day);
      return f(predictor);
    }
    case PredictorKind::kEwma: {
      Ewma predictor(spec.ewma_weight, slots_per_day);
      return f(predictor);
    }
    case PredictorKind::kAr: {
      ArPredictor predictor(spec.ar, slots_per_day);
      return f(predictor);
    }
    case PredictorKind::kAdaptiveWcma: {
      AdaptiveWcma predictor(spec.adaptive, slots_per_day);
      return f(predictor);
    }
    case PredictorKind::kPersistence: {
      Persistence predictor;
      return f(predictor);
    }
    case PredictorKind::kPreviousDay: {
      PreviousDay predictor(slots_per_day);
      return f(predictor);
    }
  }
  SHEP_REQUIRE(false, "unknown predictor kind");
  throw std::logic_error("unreachable");
}

/// Declarative description of a fleet campaign.
struct ScenarioSpec {
  std::string name = "fleet";
  std::vector<std::string> sites;          ///< paper site codes (solar/sites).
  std::vector<PredictorSpec> predictors;   ///< designs under comparison.
  std::vector<double> storage_tiers_j;     ///< storage capacities to cross in.
  std::size_t nodes_per_cell = 1;          ///< replicas per combination.
  std::size_t days = 120;                  ///< simulated horizon.
  int slots_per_day = 48;                  ///< N of the deployment.
  std::uint64_t seed = 0x5EEDu;            ///< root of every derived stream.
  /// Base node configuration; storage.capacity_j is overridden per tier and
  /// duty.slot_seconds is forced to 86400/slots_per_day by ExpandScenario.
  NodeSimConfig node;
  /// Half-width of the uniform per-node jitter applied to
  /// node.initial_level_fraction (clamped to [0, 1]); 0 disables.
  double initial_level_jitter = 0.0;
  /// Deterministic fault injection (fleet/faults.hpp); the default is a
  /// healthy fleet, which reproduces fault-free results bit for bit.
  FaultSpec faults;

  /// Throws std::invalid_argument when the spec cannot be expanded.
  void Validate() const;

  /// Exact text form of the whole spec — every double travels as a
  /// hexfloat — so a coordinator can hand the campaign to worker processes
  /// that rebuild the identical ShardPlan (same fingerprint) from the
  /// bytes alone.  Validates first: only an expandable spec serializes.
  std::string Describe() const;

  /// Mixes every field of the text form into `hash`, as values rather
  /// than text; the one field list (scenario.cpp) also drives Describe and
  /// ParseScenarioSpec, so a field that serializes is always hashed.
  void Hash(serdes::Fnv1a& hash) const;

  std::size_t cell_count() const {
    return sites.size() * predictors.size() * storage_tiers_j.size();
  }
  /// Unchecked product; Validate rejects a spec on which it would wrap.
  std::size_t node_count() const { return cell_count() * nodes_per_cell; }
};

/// Inverse of ScenarioSpec::Describe.  Throws std::invalid_argument on any
/// text that is not exactly the Describe() text of the spec it parses to;
/// round-trips every field bit-exactly.
[[nodiscard]] ScenarioSpec ParseScenarioSpec(const std::string& text);

/// Inverse of PredictorKindName ("WCMA" -> kWcma, ...).  Throws
/// std::invalid_argument on an unknown name.
PredictorKind PredictorKindFromName(const std::string& name);

/// One (site × predictor × storage) combination of the expanded matrix.
struct ScenarioCell {
  std::size_t index = 0;            ///< position in ScenarioMatrix::cells.
  std::size_t site_index = 0;       ///< into ScenarioSpec::sites.
  std::size_t predictor_index = 0;  ///< into ScenarioSpec::predictors.
  std::size_t storage_index = 0;    ///< into ScenarioSpec::storage_tiers_j.
  std::string site_code;
  std::string predictor_label;
  double storage_j = 0.0;
};

/// One concrete node of the fleet.
struct FleetNodeConfig {
  std::size_t index = 0;     ///< global node id (cell-major).
  std::size_t cell = 0;      ///< owning cell index.
  std::size_t replica = 0;   ///< replica within the cell.
  /// Weather stream seed; shared by all cells of the same site so predictor
  /// and storage comparisons are paired on identical weather.
  std::uint64_t trace_seed = 0;
  /// Node-local stream seed; unique per node.
  std::uint64_t node_seed = 0;
  /// Fault-schedule stream seed; its own lane (distinct from node_seed),
  /// so enabling faults never shifts the jitter or weather draws.
  std::uint64_t fault_seed = 0;
  /// Initial storage level after the per-node jitter draw.
  double initial_level_fraction = 0.5;
};

/// The fully expanded scenario: cells in (site, predictor, storage) order
/// and nodes cell-major (all replicas of cell 0, then cell 1, ...).
struct ScenarioMatrix {
  ScenarioSpec spec;
  std::vector<ScenarioCell> cells;
  std::vector<FleetNodeConfig> nodes;

  /// Weather-trace lanes are keyed by (site, replica) only — every
  /// predictor/storage cell of a site shares its site's lanes, which is the
  /// paired design — laid out site-major.  The runner synthesizes one trace
  /// per lane and routes each node onto its lane through these two helpers.
  std::size_t trace_lane_count() const {
    return spec.sites.size() * spec.nodes_per_cell;
  }
  std::size_t trace_lane(const FleetNodeConfig& node) const {
    return cells[node.cell].site_index * spec.nodes_per_cell + node.replica;
  }
};

/// Derives an independent 64-bit stream seed from a root seed and two
/// lane indices; splitmix64-based, stable across platforms and runs.
std::uint64_t DeriveSeed(std::uint64_t root, std::uint64_t a, std::uint64_t b);

/// Expands the combinatorial matrix.  Deterministic: same spec (including
/// seed) -> identical matrix.  Throws via Validate() on a malformed spec.
ScenarioMatrix ExpandScenario(const ScenarioSpec& spec);

}  // namespace shep
