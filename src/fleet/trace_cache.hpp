// trace_cache.hpp — memoized weather-lane synthesis for fleet campaigns.
//
// Synthesizing a weather lane into its SlotSeries (SynthesizeSlotSeries,
// solar/synth.hpp: day by day, never the full-resolution trace) is the
// fleet runner's phase-1 cost, and campaigns routinely re-run overlapping
// scenarios — the parity
// harness, the golden test, and a demo all expand the same sites with the
// same seeds.  A TraceCache keyed by (site code, trace seed, days,
// slots_per_day) — exactly the fields a TraceLanePlan carries — lets every
// run that shares a lane synthesize it once and share the immutable
// SlotSeries afterwards.
//
// The cache is shared state and therefore thread-safe, but synthesis runs
// OUTSIDE the lock: concurrent misses on the same key may both synthesize,
// and the first insertion wins.  Because synthesis is deterministic in the
// key, the loser's copy is bit-identical and is simply dropped — callers
// always receive the cached instance, so two runs that hit the same key
// observe literally the same SlotSeries object.
//
// Caching is opt-in (FleetRunOptions::trace_cache): the runner's results
// are bit-identical with and without a cache, only phase-1 wall time
// changes — pinned by tests/test_fleet_distributed.cpp.
//
// The cache never evicts.  A caller holds one for a campaign (or a few
// overlapping ones), and a fleet worker's cache only ever sees the lanes
// of its one plan, so the entry count is bounded by the lanes requested.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "timeseries/slotting.hpp"

namespace shep {

struct SynthScratch;

/// Thread-safe memo of synthesized + slotted weather lanes.
class TraceCache {
 public:
  /// Returns the SlotSeries for (site_code, trace_seed, days,
  /// slots_per_day), synthesizing it on first use.  Repeated calls with
  /// the same key return the identical (shared) instance.  When `was_hit`
  /// is non-null it reports whether THIS call was served from the cache —
  /// callers sharing the cache across concurrent runs must use it instead
  /// of diffing the global stats(), which would misattribute other runs'
  /// traffic.  A non-null `scratch` lends the miss path reusable synthesis
  /// buffers (solar/synth.hpp); it must not be shared with a concurrent
  /// caller and never changes the result.  Throws via SiteByCode /
  /// SlotSeries on invalid keys.
  std::shared_ptr<const SlotSeries> Get(const std::string& site_code,
                                        std::uint64_t trace_seed,
                                        std::size_t days, int slots_per_day,
                                        bool* was_hit = nullptr,
                                        SynthScratch* scratch = nullptr);

  /// Cumulative hit/miss counters and current entry count.  A concurrent
  /// double-synthesis of one key counts as one miss per synthesizing
  /// caller (the work genuinely happened twice).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
  };
  Stats stats() const;

 private:
  using Key = std::tuple<std::string, std::uint64_t, std::size_t, int>;

  mutable std::mutex mutex_;
  std::map<Key, std::shared_ptr<const SlotSeries>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace shep
