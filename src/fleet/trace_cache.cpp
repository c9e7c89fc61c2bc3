#include "fleet/trace_cache.hpp"

#include <utility>

#include "solar/sites.hpp"
#include "solar/synth.hpp"

namespace shep {

std::shared_ptr<const SlotSeries> TraceCache::Get(const std::string& site_code,
                                                  std::uint64_t trace_seed,
                                                  std::size_t days,
                                                  int slots_per_day,
                                                  bool* was_hit,
                                                  SynthScratch* scratch) {
  Key key{site_code, trace_seed, days, slots_per_day};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      if (was_hit != nullptr) *was_hit = true;
      return it->second;
    }
  }
  if (was_hit != nullptr) *was_hit = false;

  // Miss: synthesize without holding the lock (seconds of work on long
  // horizons; blocking every other lane lookup would serialize phase 1).
  // The lane is folded into its SlotSeries day by day; the caller's
  // scratch (if any) supplies the per-day buffers, and results are
  // bit-identical either way.
  const SiteProfile& site = SiteByCode(site_code);
  SynthOptions synth;
  synth.days = days;
  synth.seed_offset = trace_seed;
  SynthScratch local_scratch;
  auto series = std::make_shared<const SlotSeries>(SynthesizeSlotSeries(
      site, synth, slots_per_day,
      scratch != nullptr ? *scratch : local_scratch));

  std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  // First insertion wins so every caller shares one instance; a racing
  // duplicate is bit-identical (synthesis is deterministic in the key)
  // and is discarded here.
  return entries_.emplace(key, std::move(series)).first->second;
}

TraceCache::Stats TraceCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{hits_, misses_, entries_.size()};
}

}  // namespace shep
