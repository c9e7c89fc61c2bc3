#include "fleet/shard_plan.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "common/serdes.hpp"

namespace shep {

ShardPlan BuildShardPlan(const ScenarioSpec& spec, std::size_t shard_size) {
  SHEP_REQUIRE(shard_size >= 1, "shard_size must be >= 1");
  ShardPlan plan;
  plan.matrix = ExpandScenario(spec);  // validates the spec.
  plan.shard_size = shard_size;
  const ScenarioSpec& s = plan.matrix.spec;

  const std::size_t node_count = plan.matrix.nodes.size();
  const std::size_t shard_count = (node_count + shard_size - 1) / shard_size;
  plan.shards.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    ShardRange range;
    range.index = i;
    range.begin_node = i * shard_size;
    range.end_node = std::min(range.begin_node + shard_size, node_count);
    plan.shards.push_back(range);
  }

  // Lanes are keyed (site, replica), laid out site-major; every node of a
  // lane carries the same trace_seed (pinned by test_fleet), so reading it
  // off any one of them is exact.
  plan.lanes.resize(plan.matrix.trace_lane_count());
  for (std::size_t l = 0; l < plan.lanes.size(); ++l) {
    plan.lanes[l].lane = l;
    plan.lanes[l].site_code = s.sites[l / s.nodes_per_cell];
  }
  for (const FleetNodeConfig& node : plan.matrix.nodes) {
    plan.lanes[plan.matrix.trace_lane(node)].trace_seed = node.trace_seed;
  }

  // The fingerprint must cover EVERY spec field that changes simulation
  // results, not just the matrix shape — two specs that differ only in a
  // predictor parameter or a storage tier expand to identically-shaped
  // matrices, and merging their partials must still fail loudly.
  serdes::Fnv1a hash;
  hash.Mix(s.name);
  hash.Mix(s.seed);
  hash.Mix(static_cast<std::uint64_t>(node_count));
  hash.Mix(static_cast<std::uint64_t>(plan.matrix.cells.size()));
  hash.Mix(static_cast<std::uint64_t>(shard_size));
  hash.Mix(static_cast<std::uint64_t>(s.days));
  hash.Mix(static_cast<std::uint64_t>(s.slots_per_day));
  for (const PredictorSpec& p : s.predictors) {
    hash.Mix(static_cast<std::uint64_t>(p.kind));
    hash.Mix(p.wcma.alpha);
    hash.Mix(static_cast<std::uint64_t>(p.wcma.days));
    hash.Mix(static_cast<std::uint64_t>(p.wcma.slots_k));
    hash.Mix(p.ewma_weight);
    hash.Mix(static_cast<std::uint64_t>(p.ar.order));
    hash.Mix(static_cast<std::uint64_t>(p.ar.days));
    hash.Mix(p.ar.lambda);
    hash.Mix(p.ar.delta);
    hash.Mix(static_cast<std::uint64_t>(p.adaptive.alphas.size()));
    for (double a : p.adaptive.alphas) hash.Mix(a);
    hash.Mix(static_cast<std::uint64_t>(p.adaptive.ks.size()));
    for (int k : p.adaptive.ks) hash.Mix(static_cast<std::uint64_t>(k));
    hash.Mix(static_cast<std::uint64_t>(p.adaptive.days));
    hash.Mix(p.adaptive.discount);
  }
  hash.Mix(static_cast<std::uint64_t>(s.storage_tiers_j.size()));
  for (double tier : s.storage_tiers_j) hash.Mix(tier);
  hash.Mix(s.node.duty.slot_seconds);
  hash.Mix(s.node.duty.active_power_w);
  hash.Mix(s.node.duty.sleep_power_w);
  hash.Mix(s.node.duty.min_duty);
  hash.Mix(s.node.duty.max_duty);
  hash.Mix(s.node.duty.target_level_fraction);
  hash.Mix(s.node.duty.level_gain);
  hash.Mix(s.node.storage.capacity_j);
  hash.Mix(s.node.storage.charge_efficiency);
  hash.Mix(s.node.storage.leakage_w);
  hash.Mix(s.node.initial_level_fraction);
  hash.Mix(static_cast<std::uint64_t>(s.node.warmup_days));
  hash.Mix(s.initial_level_jitter);
  // Fault knobs change every result, so two campaigns differing only in a
  // fault rate must refuse to merge.
  hash.Mix(s.faults.outage_rate_per_day);
  hash.Mix(s.faults.outage_mean_slots);
  hash.Mix(s.faults.dropout_rate_per_day);
  hash.Mix(s.faults.dropout_mean_slots);
  hash.Mix(s.faults.panel_decay_per_day);
  hash.Mix(s.faults.battery_aging_per_day);
  hash.Mix(static_cast<std::uint64_t>(s.faults.recovery_window_slots));
  for (const TraceLanePlan& lane : plan.lanes) {
    hash.Mix(lane.site_code);
    hash.Mix(lane.trace_seed);
  }
  plan.fingerprint = hash.value();
  return plan;
}

std::string ShardPlan::Describe() const {
  const ScenarioSpec& s = matrix.spec;
  SHEP_REQUIRE(s.name.find_first_of(" \t\n") == std::string::npos,
               "scenario names must be whitespace-free to serialize");
  std::ostringstream os;
  os << "shep-shard-plan v1\n";
  os << "scenario " << s.name << '\n';
  os << "fingerprint " << fingerprint << '\n';
  os << "nodes " << matrix.nodes.size() << " shard_size " << shard_size
     << " days " << s.days << " slots_per_day " << s.slots_per_day << '\n';
  os << "shards " << shards.size() << '\n';
  for (const ShardRange& range : shards) {
    os << "shard " << range.index << ' ' << range.begin_node << ' '
       << range.end_node << '\n';
  }
  os << "lanes " << lanes.size() << '\n';
  for (const TraceLanePlan& lane : lanes) {
    os << "lane " << lane.lane << ' ' << lane.site_code << ' '
       << lane.trace_seed << '\n';
  }
  return os.str();
}

}  // namespace shep
