// Tests for timeseries/history.hpp — the E_{D×N} matrix.
#include "timeseries/history.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

namespace shep {
namespace {

// Feeds one whole day, slot by slot, through the cursor.
void ObserveDay(HistoryMatrix& h, std::initializer_list<double> day) {
  ASSERT_EQ(h.next_slot(), 0u) << "a day must start at slot 0";
  ASSERT_EQ(day.size(), h.slots_per_day());
  for (double sample : day) h.Observe(sample);
}

TEST(HistoryMatrix, StartsEmpty) {
  HistoryMatrix h(3, 4);
  EXPECT_EQ(h.stored_days(), 0u);
  EXPECT_FALSE(h.full());
  EXPECT_EQ(h.capacity_days(), 3u);
  EXPECT_EQ(h.slots_per_day(), 4u);
}

TEST(HistoryMatrix, FillsToCapacity) {
  HistoryMatrix h(2, 4);
  ObserveDay(h, {1.0, 1.0, 1.0, 1.0});
  EXPECT_EQ(h.stored_days(), 1u);
  EXPECT_FALSE(h.full());
  ObserveDay(h, {2.0, 2.0, 2.0, 2.0});
  EXPECT_TRUE(h.full());
  ObserveDay(h, {3.0, 3.0, 3.0, 3.0});
  EXPECT_EQ(h.stored_days(), 2u);  // saturates
}

TEST(HistoryMatrix, AtAgeOrdersNewestFirst) {
  HistoryMatrix h(3, 2);
  ObserveDay(h, {1.0, 10.0});
  ObserveDay(h, {2.0, 20.0});
  ObserveDay(h, {3.0, 30.0});
  EXPECT_DOUBLE_EQ(h.at_age(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(h.at_age(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(h.at_age(2, 1), 10.0);
}

TEST(HistoryMatrix, EvictsOldestWhenFull) {
  HistoryMatrix h(2, 1);
  ObserveDay(h, {1.0});
  ObserveDay(h, {2.0});
  ObserveDay(h, {3.0});  // evicts 1.0
  EXPECT_DOUBLE_EQ(h.at_age(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(h.at_age(1, 0), 2.0);
  EXPECT_THROW(h.at_age(2, 0), std::invalid_argument);
}

TEST(HistoryMatrix, MuIsColumnAverage) {
  // Eq. 2: μ_D(j) = Σ e(i,j) / D.
  HistoryMatrix h(3, 2);
  ObserveDay(h, {1.0, 4.0});
  ObserveDay(h, {2.0, 5.0});
  ObserveDay(h, {3.0, 6.0});
  EXPECT_DOUBLE_EQ(h.Mu(0), 2.0);
  EXPECT_DOUBLE_EQ(h.Mu(1), 5.0);
}

TEST(HistoryMatrix, MuWithSmallerWindowUsesNewestDays) {
  HistoryMatrix h(3, 1);
  ObserveDay(h, {1.0});
  ObserveDay(h, {2.0});
  ObserveDay(h, {9.0});
  EXPECT_DOUBLE_EQ(h.Mu(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(h.Mu(0, 2), 5.5);
  EXPECT_DOUBLE_EQ(h.Mu(0, 3), 4.0);
}

TEST(HistoryMatrix, MuBeforeFullUsesStoredDaysOnly) {
  HistoryMatrix h(5, 1);
  ObserveDay(h, {4.0});
  ObserveDay(h, {8.0});
  EXPECT_DOUBLE_EQ(h.Mu(0, 5), 6.0);  // window capped at stored days
}

TEST(HistoryMatrix, MuValidation) {
  HistoryMatrix h(2, 2);
  EXPECT_THROW(h.Mu(0), std::invalid_argument);  // empty
  ObserveDay(h, {1.0, 2.0});
  EXPECT_THROW(h.Mu(2), std::invalid_argument);     // bad slot
  EXPECT_THROW(h.Mu(0, 0), std::invalid_argument);  // zero window
  EXPECT_THROW(h.Mu(0, 3), std::invalid_argument);  // beyond capacity
}

TEST(HistoryMatrix, RejectsNonPositiveDimensions) {
  EXPECT_THROW(HistoryMatrix(0, 4), std::invalid_argument);
  EXPECT_THROW(HistoryMatrix(4, 0), std::invalid_argument);
  // Checked before the matrix is sized: a negative count must not reach
  // the allocator as a huge unsigned one.
  EXPECT_THROW(HistoryMatrix(-1, 4), std::invalid_argument);
  EXPECT_THROW(HistoryMatrix(4, -1), std::invalid_argument);
}

TEST(HistoryMatrix, ObserveRollsTheDayOverAtSlotN) {
  HistoryMatrix h(2, 3);
  EXPECT_FALSE(h.has_sample());
  EXPECT_EQ(h.next_slot(), 0u);
  h.Observe(1.0);
  h.Observe(2.0);
  EXPECT_TRUE(h.has_sample());
  EXPECT_EQ(h.last_sample(), 2.0);
  EXPECT_EQ(h.next_slot(), 2u);
  EXPECT_EQ(h.stored_days(), 0u);
  h.Observe(3.0);  // slot N-1 completes the day
  EXPECT_EQ(h.next_slot(), 0u);
  EXPECT_EQ(h.stored_days(), 1u);
  EXPECT_EQ(h.last_sample(), 3.0);
  EXPECT_EQ(h.at_age(0, 0), 1.0);
  EXPECT_EQ(h.at_age(0, 2), 3.0);
}

TEST(HistoryMatrix, MuNeverIncludesTodaysUnfinishedDay) {
  HistoryMatrix h(3, 2);
  ObserveDay(h, {1.0, 4.0});
  ObserveDay(h, {3.0, 8.0});
  // Fill today's slot 0 with an outlier: μ and at_age must not see it,
  // for this slot or for the one not yet reached.
  h.Observe(100.0);
  EXPECT_EQ(h.stored_days(), 2u);
  EXPECT_EQ(h.Mu(0), 2.0);
  EXPECT_EQ(h.Mu(1), 6.0);
  EXPECT_EQ(h.at_age(0, 0), 3.0);
  EXPECT_THROW(h.at_age(2, 0), std::invalid_argument);
  // Once the ring is full, today's row still never overwrites a stored day
  // before the day completes.
  h.Observe(200.0);
  ObserveDay(h, {5.0, 9.0});
  h.Observe(100.0);
  EXPECT_TRUE(h.full());
  EXPECT_EQ(h.Mu(0), 36.0);  // (3 + 100 + 5) / 3
  EXPECT_EQ(h.at_age(2, 0), 3.0);
}

TEST(HistoryMatrix, ClearForgetsEveryDayAndTheCursor) {
  HistoryMatrix h(2, 2);
  ObserveDay(h, {1.0, 2.0});
  ObserveDay(h, {3.0, 4.0});
  h.Observe(7.0);  // mid-day
  h.Clear();
  EXPECT_EQ(h.stored_days(), 0u);
  EXPECT_EQ(h.next_slot(), 0u);
  EXPECT_FALSE(h.has_sample());
  EXPECT_EQ(h.last_sample(), 0.0);
  EXPECT_EQ(h.capacity_days(), 2u);
  EXPECT_EQ(h.slots_per_day(), 2u);
  ObserveDay(h, {5.0, 6.0});
  EXPECT_EQ(h.stored_days(), 1u);
  EXPECT_DOUBLE_EQ(h.Mu(1), 6.0);
}

TEST(RecentWindow, KeepsTheNewestValuesOldestFirst) {
  RecentWindow<int> w(3);
  EXPECT_TRUE(w.empty());
  for (int v = 1; v <= 5; ++v) w.Push(v);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0], 3);
  EXPECT_EQ(w[1], 4);
  EXPECT_EQ(w[2], 5);
  w.Clear();
  EXPECT_TRUE(w.empty());
  w.Push(9);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], 9);
  EXPECT_THROW(RecentWindow<int>(0), std::invalid_argument);
}

// Property: after completing many days in a D-capacity ring, Mu over window
// w equals the arithmetic mean of the last w completed values, for any
// w <= D.
class HistoryWindowTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HistoryWindowTest, MuMatchesDirectAverage) {
  const std::size_t window = GetParam();
  HistoryMatrix h(8, 1);
  std::vector<double> pushed;
  for (int day = 0; day < 30; ++day) {
    const double v = 0.5 * day + (day % 3);
    ObserveDay(h, {v});
    pushed.push_back(v);
    const std::size_t w = std::min(window, pushed.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < w; ++i) acc += pushed[pushed.size() - 1 - i];
    EXPECT_NEAR(h.Mu(0, window), acc / static_cast<double>(w), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, HistoryWindowTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

}  // namespace
}  // namespace shep
