// Tests for timeseries/history.hpp — the E_{D×N} matrix.
#include "timeseries/history.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace shep {
namespace {

std::vector<double> DayOf(double value, std::size_t n) {
  return std::vector<double>(n, value);
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
  h.PushDay(DayOf(1.0, 4));
  EXPECT_EQ(h.stored_days(), 1u);
  EXPECT_FALSE(h.full());
  h.PushDay(DayOf(2.0, 4));
  EXPECT_TRUE(h.full());
  h.PushDay(DayOf(3.0, 4));
  EXPECT_EQ(h.stored_days(), 2u);  // saturates
}

TEST(HistoryMatrix, AtAgeOrdersNewestFirst) {
  HistoryMatrix h(3, 2);
  h.PushDay({1.0, 10.0});
  h.PushDay({2.0, 20.0});
  h.PushDay({3.0, 30.0});
  EXPECT_DOUBLE_EQ(h.at_age(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(h.at_age(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(h.at_age(2, 1), 10.0);
}

TEST(HistoryMatrix, EvictsOldestWhenFull) {
  HistoryMatrix h(2, 1);
  h.PushDay({1.0});
  h.PushDay({2.0});
  h.PushDay({3.0});  // evicts 1.0
  EXPECT_DOUBLE_EQ(h.at_age(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(h.at_age(1, 0), 2.0);
  EXPECT_THROW(h.at_age(2, 0), std::invalid_argument);
}

TEST(HistoryMatrix, MuIsColumnAverage) {
  // Eq. 2: μ_D(j) = Σ e(i,j) / D.
  HistoryMatrix h(3, 2);
  h.PushDay({1.0, 4.0});
  h.PushDay({2.0, 5.0});
  h.PushDay({3.0, 6.0});
  EXPECT_DOUBLE_EQ(h.Mu(0), 2.0);
  EXPECT_DOUBLE_EQ(h.Mu(1), 5.0);
}

TEST(HistoryMatrix, MuWithSmallerWindowUsesNewestDays) {
  HistoryMatrix h(3, 1);
  h.PushDay({1.0});
  h.PushDay({2.0});
  h.PushDay({9.0});
  EXPECT_DOUBLE_EQ(h.Mu(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(h.Mu(0, 2), 5.5);
  EXPECT_DOUBLE_EQ(h.Mu(0, 3), 4.0);
}

TEST(HistoryMatrix, MuBeforeFullUsesStoredDaysOnly) {
  HistoryMatrix h(5, 1);
  h.PushDay({4.0});
  h.PushDay({8.0});
  EXPECT_DOUBLE_EQ(h.Mu(0, 5), 6.0);  // window capped at stored days
}

TEST(HistoryMatrix, MuValidation) {
  HistoryMatrix h(2, 2);
  EXPECT_THROW(h.Mu(0), std::invalid_argument);  // empty
  h.PushDay({1.0, 2.0});
  EXPECT_THROW(h.Mu(2), std::invalid_argument);     // bad slot
  EXPECT_THROW(h.Mu(0, 0), std::invalid_argument);  // zero window
  EXPECT_THROW(h.Mu(0, 3), std::invalid_argument);  // beyond capacity
}

TEST(HistoryMatrix, PushValidatesWidth) {
  HistoryMatrix h(2, 3);
  EXPECT_THROW(h.PushDay(DayOf(1.0, 2)), std::invalid_argument);
}

TEST(HistoryMatrix, RejectsZeroDimensions) {
  EXPECT_THROW(HistoryMatrix(0, 4), std::invalid_argument);
  EXPECT_THROW(HistoryMatrix(4, 0), std::invalid_argument);
}

TEST(HistoryMatrix, ClearForgetsEveryDay) {
  HistoryMatrix h(2, 2);
  h.PushDay({1.0, 2.0});
  h.PushDay({3.0, 4.0});
  h.Clear();
  EXPECT_EQ(h.stored_days(), 0u);
  h.PushDay({5.0, 6.0});
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

// Property: after pushing many days into a D-capacity ring, Mu over window
// w equals the arithmetic mean of the last w pushed values, for any w <= D.
class HistoryWindowTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HistoryWindowTest, MuMatchesDirectAverage) {
  const std::size_t window = GetParam();
  const std::size_t capacity = 8;
  HistoryMatrix h(capacity, 1);
  std::vector<double> pushed;
  for (int day = 0; day < 30; ++day) {
    const double v = 0.5 * day + (day % 3);
    h.PushDay({v});
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
