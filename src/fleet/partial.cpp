#include "fleet/partial.hpp"

#include <sstream>

#include "common/check.hpp"

namespace shep {

std::string FleetPartial::Serialize() const {
  SHEP_REQUIRE(scenario_name.find_first_of(" \t\n") == std::string::npos,
               "scenario names must be whitespace-free to serialize");
  std::ostringstream os;
  // v2: CellAccumulator gained the min_soc moments (PR 7).  v3: the
  // graceful-degradation channel (availability and post-recovery moments,
  // downtime/recovery totals).  Older partials would mis-align on parse,
  // so the version token rejects them up front.
  os << "shep-fleet-partial v3\n";
  os << "scenario " << scenario_name << '\n';
  os << "fingerprint " << plan_fingerprint << '\n';
  os << "nodes " << nodes_simulated << '\n';
  os << "synth_seconds ";
  serdes::WriteDouble(os, synth_seconds);
  os << "\nsim_seconds ";
  serdes::WriteDouble(os, sim_seconds);
  os << "\nshards " << shards.size() << '\n';
  for (const ShardCells& shard : shards) {
    os << "shard " << shard.shard << " cells " << shard.cells.size() << '\n';
    for (const auto& [cell, acc] : shard.cells) {
      os << "cell " << cell << '\n';
      acc.Serialize(os);
    }
  }
  os << "end\n";
  return os.str();
}

FleetPartial FleetPartial::Parse(const std::string& text) {
  std::istringstream is(text);
  serdes::ExpectToken(is, "shep-fleet-partial");
  serdes::ExpectToken(is, "v3");
  FleetPartial partial;
  serdes::ExpectToken(is, "scenario");
  is >> partial.scenario_name;
  SHEP_REQUIRE(!partial.scenario_name.empty(),
               "partial is missing its scenario name");
  serdes::ExpectToken(is, "fingerprint");
  partial.plan_fingerprint = serdes::ReadU64(is);
  serdes::ExpectToken(is, "nodes");
  partial.nodes_simulated = static_cast<std::size_t>(serdes::ReadU64(is));
  serdes::ExpectToken(is, "synth_seconds");
  partial.synth_seconds = serdes::ReadDouble(is);
  serdes::ExpectToken(is, "sim_seconds");
  partial.sim_seconds = serdes::ReadDouble(is);
  serdes::ExpectToken(is, "shards");
  const std::uint64_t shard_count = serdes::ReadU64(is);
  std::size_t last_shard = 0;
  for (std::uint64_t s = 0; s < shard_count; ++s) {
    serdes::ExpectToken(is, "shard");
    ShardCells shard;
    shard.shard = static_cast<std::size_t>(serdes::ReadU64(is));
    SHEP_REQUIRE(s == 0 || shard.shard > last_shard,
                 "partial shards must be ascending by index");
    last_shard = shard.shard;
    serdes::ExpectToken(is, "cells");
    const std::uint64_t cell_count = serdes::ReadU64(is);
    for (std::uint64_t c = 0; c < cell_count; ++c) {
      serdes::ExpectToken(is, "cell");
      const auto cell = static_cast<std::size_t>(serdes::ReadU64(is));
      shard.cells.emplace_back(cell, CellAccumulator::Deserialize(is));
    }
    partial.shards.push_back(std::move(shard));
  }
  serdes::ExpectToken(is, "end");
  return partial;
}

}  // namespace shep
