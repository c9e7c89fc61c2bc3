#include "fleet/scenario.hpp"

#include <algorithm>
#include <concepts>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "common/serdes.hpp"
#include "common/rng.hpp"
#include "solar/sites.hpp"
#include "timeseries/trace.hpp"

namespace shep {

const char* PredictorKindName(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kWcma:         return "WCMA";
    case PredictorKind::kWcmaFixed:    return "FixedWCMA";
    case PredictorKind::kWcmaVm:       return "VmWCMA";
    case PredictorKind::kEwma:         return "EWMA";
    case PredictorKind::kAr:           return "AR";
    case PredictorKind::kAdaptiveWcma: return "AdaptiveWCMA";
    case PredictorKind::kPersistence:  return "Persistence";
    case PredictorKind::kPreviousDay:  return "PreviousDay";
  }
  SHEP_REQUIRE(false, "unknown predictor kind");
  throw std::logic_error("unreachable");
}

PredictorKind PredictorKindFromName(const std::string& name) {
  // The serde spells kinds by display name, not enum value, so the wire
  // format survives reordering the enum.
  for (PredictorKind kind :
       {PredictorKind::kWcma, PredictorKind::kWcmaFixed,
        PredictorKind::kWcmaVm, PredictorKind::kEwma, PredictorKind::kAr,
        PredictorKind::kAdaptiveWcma, PredictorKind::kPersistence,
        PredictorKind::kPreviousDay}) {
    if (name == PredictorKindName(kind)) return kind;
  }
  SHEP_REQUIRE(false, "unknown predictor kind name: " + name);
  throw std::logic_error("unreachable");
}

std::unique_ptr<Predictor> PredictorSpec::Make(int slots_per_day) const {
  return WithPredictor(*this, slots_per_day,
                       [](auto& predictor) -> std::unique_ptr<Predictor> {
    using Concrete = std::remove_reference_t<decltype(predictor)>;
    return std::make_unique<Concrete>(std::move(predictor));
  });
}

void PredictorSpec::Validate(int slots_per_day) const {
  // Mirrors every constructor precondition WithPredictor can hit, per kind.
  switch (kind) {
    case PredictorKind::kWcma:
    case PredictorKind::kWcmaFixed:
    case PredictorKind::kWcmaVm:
      wcma.Validate();
      SHEP_REQUIRE(wcma.slots_k < slots_per_day,
                   "WCMA K must be smaller than slots_per_day");
      break;
    case PredictorKind::kEwma:
      SHEP_REQUIRE(ewma_weight >= 0.0 && ewma_weight <= 1.0,
                   "EWMA weight must be in [0,1]");
      break;
    case PredictorKind::kAr:
      ar.Validate();
      break;
    case PredictorKind::kAdaptiveWcma:
      adaptive.Validate();
      for (int k : adaptive.ks) {
        SHEP_REQUIRE(k < slots_per_day,
                     "adaptive candidate K must be < slots_per_day");
      }
      break;
    case PredictorKind::kPersistence:
    case PredictorKind::kPreviousDay:
      break;
  }
}

void ScenarioSpec::Validate() const {
  // Validation must be exhaustive: every way a spec could fail downstream
  // is rejected here, before any worker process is spawned or any shard
  // runs, instead of part-way through a campaign.
  // The name travels as one token of the text form and of trace files.
  SHEP_REQUIRE(serdes::IsToken(name),
               "scenario name must be non-empty and whitespace-free");
  SHEP_REQUIRE(!sites.empty(), "scenario needs at least one site");
  SHEP_REQUIRE(slots_per_day > 0 && kSecondsPerDay % slots_per_day == 0,
               "slots_per_day must divide the day");
  const int slot_seconds = kSecondsPerDay / slots_per_day;
  for (const auto& code : sites) {
    const SiteProfile& site = SiteByCode(code);  // throws on unknown code.
    SHEP_REQUIRE(slot_seconds % site.resolution_s == 0,
                 "slot length must be a multiple of the site's recording "
                 "resolution: " + code);
  }
  SHEP_REQUIRE(!predictors.empty(), "scenario needs at least one predictor");
  SHEP_REQUIRE(slots_per_day >= 2, "need at least two slots per day");
  for (const PredictorSpec& p : predictors) p.Validate(slots_per_day);
  SHEP_REQUIRE(!storage_tiers_j.empty(),
               "scenario needs at least one storage tier");
  for (double s : storage_tiers_j) {
    SHEP_REQUIRE(s > 0.0, "storage tiers must be positive");
  }
  SHEP_REQUIRE(nodes_per_cell >= 1, "nodes_per_cell must be >= 1");
  // node_count() multiplies unchecked; a product that wraps would pass
  // every other check here and expand to a wrong node list.
  std::size_t nodes = 1;
  for (std::size_t factor : {sites.size(), predictors.size(),
                             storage_tiers_j.size(), nodes_per_cell}) {
    SHEP_REQUIRE(factor <= std::numeric_limits<std::size_t>::max() / nodes,
                 "scenario node count overflows");
    nodes *= factor;
  }
  // The sim loop drops the final boundary slot, so one post-warm-up slot is
  // not enough: (days - warmup) * N - 1 scored slots must be >= 1.
  SHEP_REQUIRE(days > node.warmup_days &&
                   (days - node.warmup_days) *
                           static_cast<std::size_t>(slots_per_day) >= 2,
               "horizon must leave at least one scored slot past the warm-up");
  SHEP_REQUIRE(initial_level_jitter >= 0.0 && initial_level_jitter <= 0.5,
               "initial_level_jitter must be in [0, 0.5]");
  faults.Validate(days, slots_per_day);
  node.duty.Validate();
  node.storage.Validate();
  SHEP_REQUIRE(node.initial_level_fraction >= 0.0 &&
                   node.initial_level_fraction <= 1.0,
               "initial level must be a fraction");
}

namespace {

using serdes::Key;
using serdes::Line;

// ---- The text form's one field list --------------------------------------
//
// WalkSpec visits every field of a ScenarioSpec in text order (the walk
// grammar is in common/serdes.hpp): serdes::Writer prints the text,
// serdes::Reader parses it back and SpecHasher mixes the values into a
// plan fingerprint.  Adding a field here serializes, parses and
// fingerprints it in one edit.

/// Mixes the walked values, not their text, into a fingerprint.
struct SpecHasher {
  serdes::Fnv1a& hash;

  void Keyword(const char* /*word*/, bool /*new_line*/) {}
  void Field(const std::string& value) { hash.Mix(value); }
  template <std::integral T>
  void Field(T value) {
    hash.Mix(static_cast<std::uint64_t>(value));
  }
  void Field(double value) { hash.Mix(value); }
  template <class T, class Visit>
  void List(const std::vector<T>& items, Visit&& visit) {
    hash.Mix(static_cast<std::uint64_t>(items.size()));
    for (const T& item : items) visit(item);
  }
};

// A kind travels by display name, so the text survives reordering the
// enum; the fingerprint mixes the enum value.
void KindField(serdes::Writer& io, PredictorKind kind) {
  io.Field(std::string(PredictorKindName(kind)));
}
void KindField(serdes::Reader& io, PredictorKind& kind) {
  std::string name;
  io.Field(name);
  kind = PredictorKindFromName(name);
}
void KindField(SpecHasher& io, PredictorKind kind) {
  io.Field(static_cast<std::uint64_t>(kind));
}

constexpr auto WalkSpec = [](auto& io, auto& s) {
  const auto field = [&io](auto& value) { io.Field(value); };
  // v2: the spec gained the faults block (deterministic fault injection);
  // v1 bytes would mis-align on parse, so the version token rejects them.
  Line(io, "shep-scenario");
  Key(io, "v2");
  Line(io, "name", s.name);
  Line(io, "seed", s.seed);
  Line(io, "shape", s.days, s.slots_per_day, s.nodes_per_cell);
  Line(io, "sites");
  io.List(s.sites, field);
  Line(io, "tiers");
  io.List(s.storage_tiers_j, field);
  Line(io, "predictors");
  io.List(s.predictors, [&](auto& p) {
    // Every kind serializes every parameter block: the few unused doubles
    // cost a handful of bytes and keep the reader branch-free.
    Line(io, "predictor");
    KindField(io, p.kind);
    Key(io, "wcma", p.wcma.alpha, p.wcma.days, p.wcma.slots_k);
    Key(io, "ewma", p.ewma_weight);
    Key(io, "ar", p.ar.order, p.ar.days, p.ar.lambda, p.ar.delta);
    Key(io, "adaptive");
    io.List(p.adaptive.alphas, field);
    io.List(p.adaptive.ks, field);
    io.Field(p.adaptive.days);
    io.Field(p.adaptive.discount);
  });
  auto& duty = s.node.duty;
  Line(io, "duty", duty.slot_seconds, duty.active_power_w,
       duty.sleep_power_w, duty.min_duty, duty.max_duty,
       duty.target_level_fraction, duty.level_gain);
  auto& store = s.node.storage;
  Line(io, "store", store.capacity_j, store.charge_efficiency,
       store.leakage_w);
  Line(io, "node", s.node.initial_level_fraction, s.node.warmup_days,
       s.initial_level_jitter);
  auto& faults = s.faults;
  Line(io, "faults");
  Key(io, "outage", faults.outage_rate_per_day, faults.outage_mean_slots);
  Key(io, "dropout", faults.dropout_rate_per_day, faults.dropout_mean_slots);
  Key(io, "panel", faults.panel_decay_per_day);
  Key(io, "aging", faults.battery_aging_per_day);
  Key(io, "recovery", faults.recovery_window_slots);
  Line(io, "end-scenario");
};

}  // namespace

std::string ScenarioSpec::Describe() const {
  Validate();  // only an expandable spec may cross a process boundary.
  std::ostringstream os;
  serdes::Write(os, *this, WalkSpec);
  return os.str();
}

void ScenarioSpec::Hash(serdes::Fnv1a& hash) const {
  SpecHasher hasher{hash};
  WalkSpec(hasher, *this);
}

ScenarioSpec ParseScenarioSpec(const std::string& text) {
  std::istringstream is(text);
  auto spec = serdes::Read<ScenarioSpec>(is, WalkSpec);
  // Trailing junk means these are not Describe() bytes — reject rather
  // than silently ignoring what might be a second (dropped) spec.
  std::string trailing;
  SHEP_REQUIRE(!(is >> trailing),
               "trailing content after end-scenario: " + trailing);
  spec.Validate();  // reject bytes no Describe() could have produced.
  // Each token reads back only in its one spelling; this also refuses what
  // lies between them (whitespace runs, tabs, a missing final newline).
  SHEP_REQUIRE(spec.Describe() == text,
               "scenario text is not the Describe() text of its spec");
  return spec;
}

std::uint64_t DeriveSeed(std::uint64_t root, std::uint64_t a,
                         std::uint64_t b) {
  // Fold the lane indices into a splitmix64 stream: each fold xors a lane
  // into the MIXED output of the previous round (not the raw counter), so
  // every lane is fully diffused before the next enters.  The +1 offsets
  // keep lane 0 from degenerating into the raw root.
  std::uint64_t state = root;
  state = SplitMix64(state) ^ ((a + 1) * 0x9E3779B97F4A7C15ull);
  state = SplitMix64(state) ^ ((b + 1) * 0x94D049BB133111EBull);
  return SplitMix64(state);
}

ScenarioMatrix ExpandScenario(const ScenarioSpec& spec) {
  spec.Validate();

  ScenarioMatrix matrix;
  matrix.spec = spec;
  matrix.spec.node.duty.slot_seconds =
      static_cast<double>(kSecondsPerDay / spec.slots_per_day);
  matrix.cells.reserve(spec.cell_count());
  matrix.nodes.reserve(spec.node_count());

  // Disambiguate duplicate designs of the same kind so no two cells of a
  // (site, storage) pair share a label.  EVERY member of a duplicated kind
  // gets the "#<index>" suffix — leaving the first one bare would make the
  // bare name ambiguous between "the first duplicate" and "a singleton".
  std::vector<std::string> labels(spec.predictors.size());
  for (std::size_t i = 0; i < spec.predictors.size(); ++i) {
    std::size_t kind_uses = 0;
    for (const PredictorSpec& p : spec.predictors) {
      kind_uses += p.kind == spec.predictors[i].kind ? 1 : 0;
    }
    labels[i] = spec.predictors[i].Label();
    if (kind_uses > 1) {
      labels[i] += '#';
      labels[i] += std::to_string(i);
    }
  }

  for (std::size_t i_s = 0; i_s < spec.sites.size(); ++i_s) {
    for (std::size_t i_p = 0; i_p < spec.predictors.size(); ++i_p) {
      for (std::size_t i_t = 0; i_t < spec.storage_tiers_j.size(); ++i_t) {
        ScenarioCell cell;
        cell.index = matrix.cells.size();
        cell.site_index = i_s;
        cell.predictor_index = i_p;
        cell.storage_index = i_t;
        cell.site_code = spec.sites[i_s];
        cell.predictor_label = labels[i_p];
        cell.storage_j = spec.storage_tiers_j[i_t];

        for (std::size_t r = 0; r < spec.nodes_per_cell; ++r) {
          FleetNodeConfig node;
          node.index = matrix.nodes.size();
          node.cell = cell.index;
          node.replica = r;
          // Weather lane keyed by (site, replica) only: all predictor and
          // storage cells of a site see identical weather (paired design).
          node.trace_seed = DeriveSeed(spec.seed, i_s, r);
          node.node_seed = DeriveSeed(spec.seed, cell.index + 0x10000, r);
          // Own lane offset (0x20000 vs the node stream's 0x10000): fault
          // schedules draw from a stream no other consumer touches, so a
          // faulted campaign shares its weather and jitter draws with the
          // healthy one bit for bit.
          node.fault_seed = DeriveSeed(spec.seed, cell.index + 0x20000, r);
          node.initial_level_fraction = spec.node.initial_level_fraction;
          if (spec.initial_level_jitter > 0.0) {
            Rng rng(node.node_seed);
            node.initial_level_fraction = std::clamp(
                node.initial_level_fraction +
                    rng.Uniform(-spec.initial_level_jitter,
                                spec.initial_level_jitter),
                0.0, 1.0);
          }
          matrix.nodes.push_back(node);
        }
        matrix.cells.push_back(cell);
      }
    }
  }
  return matrix;
}

}  // namespace shep
