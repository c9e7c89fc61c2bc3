// history.hpp — the E_{D×N} matrix of past days' slot samples (paper Fig. 3).
//
// The prediction algorithm keeps the boundary samples of the last D days in a
// D×N matrix and uses the per-slot column averages μ_D(j) (Eq. 2).  On the
// target microcontroller this matrix is the predictor's dominant memory cost
// (D*N 16-bit words), which is why the paper's guideline "D ≈ 10–11 suffices"
// matters.  HistoryMatrix is a day-granular ring buffer fed one slot at a
// time: it carries the cursor of the day in progress (next slot, last
// sample), and the N-th sample of a day moves that day into the ring,
// evicting day D+1.  Every double-precision predictor with a day history
// steps it through Observe().  RecentWindow is its slot-granular sibling:
// the last K values of today (WCMA's conditioning window, AR's ratio lags).
// Both are sized once at construction, so the per-slot step of every
// predictor built on them never allocates.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.hpp"

namespace shep {

/// Ring buffer of the last `capacity_days` completed days of per-slot
/// samples, plus the cursor of the day in progress.
class HistoryMatrix {
 public:
  /// \param capacity_days  D: how many past days are retained (>= 1).
  /// \param slots_per_day  N: slots per day (>= 1).
  /// Both are checked before anything is allocated.
  HistoryMatrix(int capacity_days, int slots_per_day);

  std::size_t capacity_days() const { return capacity_; }
  std::size_t slots_per_day() const { return slots_; }

  /// Number of completed days currently stored (saturates at capacity).
  std::size_t stored_days() const { return stored_; }

  /// True once `capacity_days` days have been completed; μ over the full
  /// window is only meaningful then (the paper starts evaluation at day 21
  /// so that the matrix is full for D = 20).
  bool full() const { return stored_ == capacity_; }

  /// Records `sample` in slot next_slot() of today.  The N-th sample
  /// completes the day: it enters the ring (evicting the oldest day when at
  /// capacity) and the cursor restarts at slot 0.  Today's unfinished day
  /// is never visible to at_age() or Mu().
  void Observe(double sample) {
    data_[today_row_ * slots_ + next_slot_] = sample;
    last_sample_ = sample;
    has_sample_ = true;
    if (++next_slot_ == slots_) {
      next_slot_ = 0;
      today_row_ = today_row_ == capacity_ ? 0 : today_row_ + 1;
      if (stored_ < capacity_) ++stored_;
    }
  }

  /// Slot-of-day the next Observe() fills, i.e. the slot a predictor
  /// predicts.
  std::size_t next_slot() const { return next_slot_; }

  /// The most recently observed sample (0 before any).
  double last_sample() const { return last_sample_; }
  bool has_sample() const { return has_sample_; }

  /// Sample of slot `slot` on the `age`-th most recent completed day (age 0
  /// = yesterday).  Requires age < stored_days().
  double at_age(std::size_t age, std::size_t slot) const;

  /// μ_D(slot): average of the slot's samples over the most recent
  /// min(window_days, stored) days (Eq. 2).  Requires stored_days() > 0 and
  /// 1 <= window_days <= capacity.
  double Mu(std::size_t slot, std::size_t window_days) const;

  /// μ over the full capacity window (the common case in the predictor).
  double Mu(std::size_t slot) const { return Mu(slot, capacity_); }

  /// Forgets every day and the cursor but keeps the storage, so a
  /// predictor's Reset() never reallocates the matrix.
  void Clear();

 private:
  std::size_t capacity_;
  std::size_t slots_;
  std::size_t stored_ = 0;
  std::size_t today_row_ = 0;    ///< row of the day in progress.
  std::size_t next_slot_ = 0;
  double last_sample_ = 0.0;
  bool has_sample_ = false;
  /// (capacity + 1) x slots, row-major: today's row, and the completed
  /// days in the rows behind it (wrapping), newest first.
  std::vector<double> data_;
};

/// The last `capacity` values pushed, oldest first, in a ring sized at
/// construction.
template <class T>
class RecentWindow {
 public:
  explicit RecentWindow(std::size_t capacity) : items_(capacity) {
    SHEP_REQUIRE(capacity >= 1, "window capacity must be at least one");
  }

  std::size_t capacity() const { return items_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// i = 0 is the oldest retained value, size() - 1 the newest.
  const T& operator[](std::size_t i) const { return items_[Wrap(begin_ + i)]; }

  /// Appends `value`, evicting the oldest value when full.
  void Push(const T& value) {
    items_[Wrap(begin_ + size_)] = value;
    if (size_ < items_.size()) {
      ++size_;
    } else {
      begin_ = Wrap(begin_ + 1);
    }
  }

  void Clear() { begin_ = size_ = 0; }

 private:
  std::size_t Wrap(std::size_t i) const {
    return i < items_.size() ? i : i - items_.size();
  }

  std::vector<T> items_;
  std::size_t begin_ = 0;  ///< index of the oldest value.
  std::size_t size_ = 0;
};

}  // namespace shep
