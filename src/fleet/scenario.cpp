#include "fleet/scenario.hpp"

#include <algorithm>
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

std::string ScenarioSpec::Describe() const {
  Validate();  // only an expandable spec may cross a process boundary.
  SHEP_REQUIRE(name.find_first_of(" \t\n") == std::string::npos,
               "scenario names must be whitespace-free to serialize");
  std::ostringstream os;
  // v2: the spec gained the faults block (deterministic fault injection);
  // v1 bytes would mis-align on parse, so the version token rejects them.
  os << "shep-scenario v2\n";
  os << "name " << name << '\n';
  os << "seed " << seed << '\n';
  os << "shape " << days << ' ' << slots_per_day << ' ' << nodes_per_cell
     << '\n';
  os << "sites " << sites.size();
  for (const std::string& code : sites) os << ' ' << code;
  os << '\n';
  os << "tiers " << storage_tiers_j.size();
  for (double tier : storage_tiers_j) {
    os << ' ';
    serdes::WriteDouble(os, tier);
  }
  os << '\n';
  os << "predictors " << predictors.size() << '\n';
  for (const PredictorSpec& p : predictors) {
    // Every kind serializes every parameter block: the few unused doubles
    // cost a handful of bytes and keep the reader branch-free.
    os << "predictor " << PredictorKindName(p.kind) << " wcma ";
    serdes::WriteDouble(os, p.wcma.alpha);
    os << ' ' << p.wcma.days << ' ' << p.wcma.slots_k << " ewma ";
    serdes::WriteDouble(os, p.ewma_weight);
    os << " ar " << p.ar.order << ' ' << p.ar.days << ' ';
    serdes::WriteDouble(os, p.ar.lambda);
    os << ' ';
    serdes::WriteDouble(os, p.ar.delta);
    os << " adaptive " << p.adaptive.alphas.size();
    for (double a : p.adaptive.alphas) {
      os << ' ';
      serdes::WriteDouble(os, a);
    }
    os << ' ' << p.adaptive.ks.size();
    for (int k : p.adaptive.ks) os << ' ' << k;
    os << ' ' << p.adaptive.days << ' ';
    serdes::WriteDouble(os, p.adaptive.discount);
    os << '\n';
  }
  os << "duty ";
  serdes::WriteDouble(os, node.duty.slot_seconds);
  os << ' ';
  serdes::WriteDouble(os, node.duty.active_power_w);
  os << ' ';
  serdes::WriteDouble(os, node.duty.sleep_power_w);
  os << ' ';
  serdes::WriteDouble(os, node.duty.min_duty);
  os << ' ';
  serdes::WriteDouble(os, node.duty.max_duty);
  os << ' ';
  serdes::WriteDouble(os, node.duty.target_level_fraction);
  os << ' ';
  serdes::WriteDouble(os, node.duty.level_gain);
  os << '\n';
  os << "store ";
  serdes::WriteDouble(os, node.storage.capacity_j);
  os << ' ';
  serdes::WriteDouble(os, node.storage.charge_efficiency);
  os << ' ';
  serdes::WriteDouble(os, node.storage.leakage_w);
  os << '\n';
  os << "node ";
  serdes::WriteDouble(os, node.initial_level_fraction);
  os << ' ' << node.warmup_days << ' ';
  serdes::WriteDouble(os, initial_level_jitter);
  os << '\n';
  os << "faults outage ";
  serdes::WriteDouble(os, faults.outage_rate_per_day);
  os << ' ';
  serdes::WriteDouble(os, faults.outage_mean_slots);
  os << " dropout ";
  serdes::WriteDouble(os, faults.dropout_rate_per_day);
  os << ' ';
  serdes::WriteDouble(os, faults.dropout_mean_slots);
  os << " panel ";
  serdes::WriteDouble(os, faults.panel_decay_per_day);
  os << " aging ";
  serdes::WriteDouble(os, faults.battery_aging_per_day);
  os << " recovery " << faults.recovery_window_slots << '\n';
  os << "end-scenario\n";
  return os.str();
}

ScenarioSpec ParseScenarioSpec(const std::string& text) {
  std::istringstream is(text);
  serdes::ExpectToken(is, "shep-scenario");
  serdes::ExpectToken(is, "v2");
  ScenarioSpec spec;
  serdes::ExpectToken(is, "name");
  is >> spec.name;
  SHEP_REQUIRE(!spec.name.empty(), "scenario is missing its name");
  serdes::ExpectToken(is, "seed");
  spec.seed = serdes::ReadU64(is);
  serdes::ExpectToken(is, "shape");
  spec.days = static_cast<std::size_t>(serdes::ReadU64(is));
  spec.slots_per_day = serdes::ReadInt(is);
  spec.nodes_per_cell = static_cast<std::size_t>(serdes::ReadU64(is));

  serdes::ExpectToken(is, "sites");
  const std::uint64_t site_count = serdes::ReadU64(is);
  spec.sites.clear();
  for (std::uint64_t i = 0; i < site_count; ++i) {
    std::string code;
    is >> code;
    SHEP_REQUIRE(!code.empty(), "scenario lists an empty site code");
    spec.sites.push_back(code);
  }

  serdes::ExpectToken(is, "tiers");
  const std::uint64_t tier_count = serdes::ReadU64(is);
  spec.storage_tiers_j.clear();
  for (std::uint64_t i = 0; i < tier_count; ++i) {
    spec.storage_tiers_j.push_back(serdes::ReadDouble(is));
  }

  serdes::ExpectToken(is, "predictors");
  const std::uint64_t predictor_count = serdes::ReadU64(is);
  spec.predictors.clear();
  for (std::uint64_t i = 0; i < predictor_count; ++i) {
    serdes::ExpectToken(is, "predictor");
    PredictorSpec p;
    std::string kind;
    is >> kind;
    p.kind = PredictorKindFromName(kind);
    serdes::ExpectToken(is, "wcma");
    p.wcma.alpha = serdes::ReadDouble(is);
    p.wcma.days = serdes::ReadInt(is);
    p.wcma.slots_k = serdes::ReadInt(is);
    serdes::ExpectToken(is, "ewma");
    p.ewma_weight = serdes::ReadDouble(is);
    serdes::ExpectToken(is, "ar");
    p.ar.order = serdes::ReadInt(is);
    p.ar.days = serdes::ReadInt(is);
    p.ar.lambda = serdes::ReadDouble(is);
    p.ar.delta = serdes::ReadDouble(is);
    serdes::ExpectToken(is, "adaptive");
    const std::uint64_t alpha_count = serdes::ReadU64(is);
    p.adaptive.alphas.clear();
    for (std::uint64_t a = 0; a < alpha_count; ++a) {
      p.adaptive.alphas.push_back(serdes::ReadDouble(is));
    }
    const std::uint64_t k_count = serdes::ReadU64(is);
    p.adaptive.ks.clear();
    for (std::uint64_t k = 0; k < k_count; ++k) {
      p.adaptive.ks.push_back(serdes::ReadInt(is));
    }
    p.adaptive.days = serdes::ReadInt(is);
    p.adaptive.discount = serdes::ReadDouble(is);
    spec.predictors.push_back(p);
  }

  serdes::ExpectToken(is, "duty");
  spec.node.duty.slot_seconds = serdes::ReadDouble(is);
  spec.node.duty.active_power_w = serdes::ReadDouble(is);
  spec.node.duty.sleep_power_w = serdes::ReadDouble(is);
  spec.node.duty.min_duty = serdes::ReadDouble(is);
  spec.node.duty.max_duty = serdes::ReadDouble(is);
  spec.node.duty.target_level_fraction = serdes::ReadDouble(is);
  spec.node.duty.level_gain = serdes::ReadDouble(is);
  serdes::ExpectToken(is, "store");
  spec.node.storage.capacity_j = serdes::ReadDouble(is);
  spec.node.storage.charge_efficiency = serdes::ReadDouble(is);
  spec.node.storage.leakage_w = serdes::ReadDouble(is);
  serdes::ExpectToken(is, "node");
  spec.node.initial_level_fraction = serdes::ReadDouble(is);
  spec.node.warmup_days = static_cast<std::size_t>(serdes::ReadU64(is));
  spec.initial_level_jitter = serdes::ReadDouble(is);
  serdes::ExpectToken(is, "faults");
  serdes::ExpectToken(is, "outage");
  spec.faults.outage_rate_per_day = serdes::ReadDouble(is);
  spec.faults.outage_mean_slots = serdes::ReadDouble(is);
  serdes::ExpectToken(is, "dropout");
  spec.faults.dropout_rate_per_day = serdes::ReadDouble(is);
  spec.faults.dropout_mean_slots = serdes::ReadDouble(is);
  serdes::ExpectToken(is, "panel");
  spec.faults.panel_decay_per_day = serdes::ReadDouble(is);
  serdes::ExpectToken(is, "aging");
  spec.faults.battery_aging_per_day = serdes::ReadDouble(is);
  serdes::ExpectToken(is, "recovery");
  spec.faults.recovery_window_slots =
      static_cast<std::size_t>(serdes::ReadU64(is));
  serdes::ExpectToken(is, "end-scenario");
  // Trailing junk means these are not Describe() bytes — reject rather
  // than silently ignoring what might be a second (dropped) spec.
  std::string trailing;
  SHEP_REQUIRE(!(is >> trailing),
               "trailing content after end-scenario: " + trailing);
  spec.Validate();  // reject bytes no Describe() could have produced.
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
