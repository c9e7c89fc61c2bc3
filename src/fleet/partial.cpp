#include "fleet/partial.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/serdes.hpp"

namespace shep {

namespace {

using serdes::Key;
using serdes::Line;

constexpr auto WalkPartial = [](auto& io, auto& p) {
  // v2: CellAccumulator gained the min_soc moments (PR 7).  v3: the
  // graceful-degradation channel (availability and post-recovery moments,
  // downtime/recovery totals).  v4: the predictor_runs count.  Older
  // partials would mis-align on parse, so the version token rejects them
  // up front.
  Line(io, "shep-fleet-partial");
  Key(io, "v4");
  Line(io, "scenario", p.scenario_name);
  Line(io, "fingerprint", p.plan_fingerprint);
  Line(io, "nodes", p.nodes_simulated);
  Line(io, "predictor_runs", p.predictor_runs);
  Line(io, "synth_seconds", p.synth_seconds);
  Line(io, "sim_seconds", p.sim_seconds);
  Line(io, "shards");
  io.List(p.shards, [&io](auto& shard) {
    Line(io, "shard", shard.shard);
    Key(io, "cells");
    io.List(shard.cells, [&io](auto& cell) {
      Line(io, "cell", cell.first);
      io.Field(cell.second);
    });
  });
  Line(io, "end");
};

}  // namespace

std::string FleetPartial::Serialize() const {
  std::ostringstream os;
  serdes::Write(os, *this, WalkPartial);
  return os.str();
}

FleetPartial FleetPartial::Parse(const std::string& text) {
  std::istringstream is(text);
  auto partial = serdes::Read<FleetPartial>(is, WalkPartial);
  for (std::size_t s = 1; s < partial.shards.size(); ++s) {
    SHEP_REQUIRE(partial.shards[s - 1].shard < partial.shards[s].shard,
                 "partial shards must be ascending by index");
  }
  // Each token reads back only in its one spelling; this also refuses what
  // lies between them (whitespace runs, tabs, a missing final newline).
  SHEP_REQUIRE(partial.Serialize() == text,
               "partial text is not the Serialize() text of its partial");
  return partial;
}

}  // namespace shep
