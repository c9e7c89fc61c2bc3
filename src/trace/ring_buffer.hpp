// ring_buffer.hpp — the lock-free lane between the node-sim hot path and
// the drain thread.
//
// Each batch worker of the fleet runner owns one TraceRing: the worker is
// the only producer (ParallelForWorker serializes iterations that share a
// worker id) and the sink's drain thread is the only consumer, so a
// classic single-producer/single-consumer ring with acquire/release
// indices is race-free without a single lock or RMW on the hot path.
//
// When the drain falls behind and the ring fills, TryPush REFUSES the
// event and counts the drop instead of blocking the simulation: tracing
// is observational and must never throttle the hot path.  Drop counts are
// surfaced per shard (trace file footers) and per run (TraceSinkStats) —
// dropped telemetry is reported, never silent.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace shep {

// TryPush must never park the hot path behind a lock hidden inside a
// non-lock-free atomic.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "TraceRing's cursors need lock-free 64-bit atomics");

/// One observation crossing the ring: a slot event of a node, or the
/// end-of-shard marker the runner pushes after a shard's last node (the
/// drain uses it to finalize and write that shard's trace file).
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kSlot,      ///< one simulated slot of `node`.
    kShardEnd,  ///< shard `shard` is complete; `dropped` carries its drop
                ///< count (events TryPush refused while it ran).
  };

  Kind kind = Kind::kSlot;
  bool violated = false;
  bool outage = false;  ///< the node was dark this slot (fault injection).
  std::uint32_t slot = 0;
  std::uint64_t shard = 0;
  std::uint64_t node = 0;
  std::uint64_t cell = 0;
  std::uint64_t dropped = 0;  ///< kShardEnd only.
  double soc = 0.0;
  double predicted_w = 0.0;
  double actual_w = 0.0;
  double duty = 0.0;
};

/// Bounded SPSC ring of TraceEvents.  Capacity is rounded up to a power of
/// two so the index math is a mask, not a modulo.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) {
    SHEP_REQUIRE(capacity >= 2, "trace ring needs at least two slots");
    std::size_t pow2 = 2;
    while (pow2 < capacity) pow2 *= 2;
    slots_.resize(pow2);
    mask_ = pow2 - 1;
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Producer side.  Returns false (and counts the drop) when the ring is
  /// full; never blocks, never reorders — the hot path's cost is two
  /// atomic loads and one release store.
  bool TryPush(const TraceEvent& event) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head > mask_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    slots_[static_cast<std::size_t>(tail) & mask_] = event;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: moves up to `max` pending events into `out`
  /// (appending) and returns how many.  Only the drain thread may call it.
  std::size_t PopBatch(std::vector<TraceEvent>& out, std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    std::uint64_t n = tail - head;
    if (n > max) n = max;
    for (std::uint64_t i = 0; i < n; ++i) {
      out.push_back(slots_[static_cast<std::size_t>(head + i) & mask_]);
    }
    if (n > 0) head_.store(head + n, std::memory_order_release);
    return static_cast<std::size_t>(n);
  }

  /// Events TryPush refused so far.  Monotonic; readable from any thread.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// True when every pushed event has been popped (drain-side check).
  bool empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  std::vector<TraceEvent> slots_;
  std::size_t mask_ = 0;
  /// Producer and consumer indices on separate cache lines so the hot
  /// path's tail stores never false-share with the drain's head stores.
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< producer cursor.
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< consumer cursor.
  alignas(64) std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace shep
