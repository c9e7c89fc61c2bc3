// history.hpp — the E_{D×N} matrix of past days' slot samples (paper Fig. 3).
//
// The prediction algorithm keeps the boundary samples of the last D days in a
// D×N matrix and uses the per-slot column averages μ_D(j) (Eq. 2).  On the
// target microcontroller this matrix is the predictor's dominant memory cost
// (D*N 16-bit words), which is why the paper's guideline "D ≈ 10–11 suffices"
// matters.  HistoryMatrix is a day-granular ring buffer: pushing day D+1
// evicts the oldest day in O(N).  RecentWindow is its slot-granular
// sibling: the last K values of today (WCMA's conditioning window, AR's
// ratio lags).  Both are sized once at construction, so the per-slot step
// of every predictor built on them never allocates.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace shep {

/// Ring buffer of the last `capacity_days` days of per-slot samples.
class HistoryMatrix {
 public:
  /// \param capacity_days  D: how many past days are retained (>= 1).
  /// \param slots_per_day  N: slots per day (>= 1).
  HistoryMatrix(std::size_t capacity_days, std::size_t slots_per_day);

  std::size_t capacity_days() const { return capacity_; }
  std::size_t slots_per_day() const { return slots_; }

  /// Number of days currently stored (saturates at capacity).
  std::size_t stored_days() const { return stored_; }

  /// True once `capacity_days` days have been pushed; μ over the full window
  /// is only meaningful then (the paper starts evaluation at day 21 so that
  /// the matrix is full for D = 20).
  bool full() const { return stored_ == capacity_; }

  /// Appends a completed day's slot samples (size must equal N), evicting
  /// the oldest day when at capacity.
  void PushDay(std::span<const double> day_samples);

  /// Convenience overload for literal days (tests, small examples).
  void PushDay(std::initializer_list<double> day_samples) {
    PushDay(std::span<const double>(day_samples.begin(),
                                    day_samples.size()));
  }

  /// Sample of slot `slot` on the `age`-th most recent day (age 0 = the most
  /// recently pushed day).  Requires age < stored_days().
  double at_age(std::size_t age, std::size_t slot) const;

  /// μ_D(slot): average of the slot's samples over the most recent
  /// min(window_days, stored) days (Eq. 2).  Requires stored_days() > 0 and
  /// 1 <= window_days <= capacity.
  double Mu(std::size_t slot, std::size_t window_days) const;

  /// μ over the full capacity window (the common case in the predictor).
  double Mu(std::size_t slot) const { return Mu(slot, capacity_); }

  /// Forgets every stored day but keeps the storage, so a predictor's
  /// Reset() never reallocates the matrix.
  void Clear();

 private:
  std::size_t capacity_;
  std::size_t slots_;
  std::size_t stored_ = 0;
  std::size_t next_row_ = 0;          // ring-buffer write position
  std::vector<double> data_;          // capacity x slots, row-major
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
