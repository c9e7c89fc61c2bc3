// Tests for metrics/error.hpp — the paper's Sec. III methodology.
#include "metrics/error.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace shep {
namespace {

PredictionPoint Point(std::size_t day, double predicted, double boundary,
                      double mean) {
  PredictionPoint p;
  p.day = day;
  p.predicted = predicted;
  p.boundary = boundary;
  p.mean = mean;
  return p;
}

RoiFilter NoFilter() {
  RoiFilter f;
  f.threshold_fraction = 0.0;
  f.first_day = 0;
  return f;
}

TEST(Reference, SelectsTarget) {
  const auto p = Point(0, 1.0, 2.0, 3.0);
  EXPECT_DOUBLE_EQ(Reference(p, ErrorTarget::kBoundarySample), 2.0);
  EXPECT_DOUBLE_EQ(Reference(p, ErrorTarget::kSlotMean), 3.0);
}

TEST(EvaluateErrors, MapeOfPerfectPredictionIsZero) {
  std::vector<PredictionPoint> pts{Point(0, 5.0, 5.0, 5.0),
                                   Point(0, 3.0, 3.0, 3.0)};
  const auto s = EvaluateErrors(pts, ErrorTarget::kSlotMean, 5.0, NoFilter());
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.mape, 0.0);
  EXPECT_DOUBLE_EQ(s.rmse, 0.0);
  EXPECT_DOUBLE_EQ(s.mae, 0.0);
  EXPECT_DOUBLE_EQ(s.mbe, 0.0);
}

TEST(EvaluateErrors, KnownValues) {
  // errors: 10-8=2 (20 %), 5-6=-1 (20 %).
  std::vector<PredictionPoint> pts{Point(0, 8.0, 0.0, 10.0),
                                   Point(0, 6.0, 0.0, 5.0)};
  const auto s = EvaluateErrors(pts, ErrorTarget::kSlotMean, 10.0, NoFilter());
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.mape, 0.2);
  EXPECT_DOUBLE_EQ(s.mae, 1.5);
  EXPECT_DOUBLE_EQ(s.rmse, std::sqrt((4.0 + 1.0) / 2.0));
  EXPECT_DOUBLE_EQ(s.mbe, 0.5);
}

TEST(EvaluateErrors, MapeVsMapePrimeUseDifferentReferences) {
  // The Sec. III argument in miniature: the same prediction scores
  // differently against the boundary sample vs the slot mean.
  std::vector<PredictionPoint> pts{Point(0, 9.0, 12.0, 9.0)};
  const auto mape =
      EvaluateErrors(pts, ErrorTarget::kSlotMean, 12.0, NoFilter());
  const auto mape_prime =
      EvaluateErrors(pts, ErrorTarget::kBoundarySample, 12.0, NoFilter());
  EXPECT_DOUBLE_EQ(mape.mape, 0.0);
  EXPECT_DOUBLE_EQ(mape_prime.mape, 0.25);
}

TEST(EvaluateErrors, RoiThresholdDropsSmallValues) {
  // 10 % of peak 10 = 1.0; the 0.5 point must be excluded.
  std::vector<PredictionPoint> pts{Point(0, 1.0, 0.0, 10.0),
                                   Point(0, 1.0, 0.0, 0.5)};
  RoiFilter f;
  f.threshold_fraction = 0.10;
  f.first_day = 0;
  const auto s = EvaluateErrors(pts, ErrorTarget::kSlotMean, 10.0, f);
  EXPECT_EQ(s.count, 1u);
}

TEST(EvaluateErrors, FirstDayFilterMatchesPaperProtocol) {
  // Paper: evaluation starts at day 21 (index 20) so D=20 history is full.
  std::vector<PredictionPoint> pts{Point(19, 1.0, 0.0, 10.0),
                                   Point(20, 1.0, 0.0, 10.0),
                                   Point(21, 1.0, 0.0, 10.0)};
  const auto s = EvaluateErrors(pts, ErrorTarget::kSlotMean, 10.0, {});
  EXPECT_EQ(s.count, 2u);
}

TEST(EvaluateErrors, EndDayFilterBounds) {
  RoiFilter f = {};
  f.threshold_fraction = 0.0;
  f.first_day = 0;
  f.end_day = 2;
  std::vector<PredictionPoint> pts{Point(0, 1.0, 0.0, 10.0),
                                   Point(1, 1.0, 0.0, 10.0),
                                   Point(2, 1.0, 0.0, 10.0)};
  const auto s = EvaluateErrors(pts, ErrorTarget::kSlotMean, 10.0, f);
  EXPECT_EQ(s.count, 2u);
}

TEST(EvaluateErrors, EmptySelectionIsInvalidStats) {
  std::vector<PredictionPoint> pts{Point(0, 1.0, 0.0, 0.05)};
  const auto s = EvaluateErrors(pts, ErrorTarget::kSlotMean, 10.0, {});
  EXPECT_FALSE(s.valid());
  EXPECT_EQ(s.count, 0u);
}

TEST(EvaluateErrors, OutlierInflatesRmseNotMape) {
  // The paper's rationale for MAPE over RMSE: one large burst error
  // dominates RMSE but only contributes proportionally to MAPE.
  std::vector<PredictionPoint> base;
  for (int i = 0; i < 99; ++i) base.push_back(Point(0, 9.0, 0.0, 10.0));
  auto with_outlier = base;
  with_outlier.push_back(Point(0, 0.0, 0.0, 100.0));

  const auto s0 =
      EvaluateErrors(base, ErrorTarget::kSlotMean, 100.0, NoFilter());
  const auto s1 =
      EvaluateErrors(with_outlier, ErrorTarget::kSlotMean, 100.0, NoFilter());
  // RMSE explodes by >5x; MAPE grows by ~10 % of its value.
  EXPECT_GT(s1.rmse, 5.0 * s0.rmse);
  EXPECT_LT(s1.mape, 1.2 * s0.mape + 0.01);
}

TEST(EvaluateErrors, ValidatesThreshold) {
  std::vector<PredictionPoint> pts{Point(0, 1.0, 1.0, 1.0)};
  RoiFilter f;
  f.threshold_fraction = 1.5;
  EXPECT_THROW(EvaluateErrors(pts, ErrorTarget::kSlotMean, 1.0, f),
               std::invalid_argument);
}

}  // namespace
}  // namespace shep
