#include "fleet/shard_plan.hpp"

#include <algorithm>
#include <cstdint>

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

  // The fingerprint covers every field of the spec's text form (the same
  // field list Describe and ParseScenarioSpec walk): two specs that differ
  // only in a predictor parameter or a fault rate expand to identically-
  // shaped matrices, and merging their partials must still fail loudly.
  // The lanes stay in too, so a DeriveSeed skew between two builds that
  // agree on the spec is still caught.
  serdes::Fnv1a hash;
  s.Hash(hash);
  hash.Mix(static_cast<std::uint64_t>(shard_size));
  for (const TraceLanePlan& lane : plan.lanes) {
    hash.Mix(lane.site_code);
    hash.Mix(lane.trace_seed);
  }
  plan.fingerprint = hash.value();
  return plan;
}

}  // namespace shep
