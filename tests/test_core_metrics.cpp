// Error-metric math on hand-computable tensors.

#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.hpp"

namespace parpde::core {
namespace {

TEST(Metrics, PerfectPredictionIsZero) {
  Tensor t({4, 3, 3});
  for (std::int64_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i + 1);
  const ErrorMetrics m = overall_metrics(t, t);
  EXPECT_EQ(m.mape, 0.0);
  EXPECT_EQ(m.rmse, 0.0);
  EXPECT_EQ(m.max_err, 0.0);
  EXPECT_EQ(m.rel_l2, 0.0);
}

TEST(Metrics, KnownValues) {
  // target = [1, 2], prediction = [1.1, 1.8] (single channel 1x2 grid).
  const Tensor target = Tensor::from({1, 1, 2}, {1.0f, 2.0f});
  const Tensor pred = Tensor::from({1, 1, 2}, {1.1f, 1.8f});
  const ErrorMetrics m = overall_metrics(pred, target);
  EXPECT_NEAR(m.mape, 100.0 / 2.0 * (0.1 + 0.1), 1e-3);
  EXPECT_NEAR(m.rmse, std::sqrt((0.01 + 0.04) / 2.0), 1e-6);
  EXPECT_NEAR(m.max_err, 0.2, 1e-6);
  EXPECT_NEAR(m.rel_l2, std::sqrt(0.05 / 5.0), 1e-6);
}

TEST(Metrics, PerChannelSeparation) {
  // Channel 0 perfect, channel 1 off by 1 everywhere.
  Tensor target({2, 2, 2});
  Tensor pred({2, 2, 2});
  for (std::int64_t i = 0; i < 4; ++i) {
    target[i] = 2.0f;
    pred[i] = 2.0f;
  }
  for (std::int64_t i = 4; i < 8; ++i) {
    target[i] = 2.0f;
    pred[i] = 3.0f;
  }
  const auto per = channel_metrics(pred, target);
  ASSERT_EQ(per.size(), 2u);
  EXPECT_EQ(per[0].rmse, 0.0);
  EXPECT_NEAR(per[1].rmse, 1.0, 1e-6);
  EXPECT_NEAR(per[1].mape, 50.0, 1e-3);
}

TEST(Metrics, MapeStabilizedNearZeroTargets) {
  const Tensor target = Tensor::from({1, 1, 1}, {0.0f});
  const Tensor pred = Tensor::from({1, 1, 1}, {1e-3f});
  const ErrorMetrics m = overall_metrics(pred, target, /*mape_eps=*/1e-2);
  EXPECT_NEAR(m.mape, 100.0 * 1e-3 / 1e-2, 1e-3);
  EXPECT_TRUE(std::isfinite(m.mape));
}

TEST(Metrics, RejectsShapeMismatch) {
  EXPECT_THROW(overall_metrics(Tensor({1, 2, 2}), Tensor({1, 3, 3})),
               std::invalid_argument);
  EXPECT_THROW(channel_metrics(Tensor({1, 2, 2, 2}), Tensor({1, 2, 2, 2})),
               std::invalid_argument);
}

TEST(Metrics, ChannelNames) {
  EXPECT_EQ(channel_name(0), "pressure");
  EXPECT_EQ(channel_name(1), "density");
  EXPECT_EQ(channel_name(2), "vel-x");
  EXPECT_EQ(channel_name(3), "vel-y");
  EXPECT_EQ(channel_name(9), "ch9");
}

TEST(Metrics, CenterlineExtractsMiddleRow) {
  Tensor frame({2, 4, 5});
  for (std::int64_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<float>(i);
  }
  const auto line = centerline(frame, 1);
  ASSERT_EQ(line.size(), 5u);
  // Channel 1, row 2 (h/2 = 2), columns 0..4.
  EXPECT_FLOAT_EQ(line[0], frame.at(1, 2, 0));
  EXPECT_FLOAT_EQ(line[4], frame.at(1, 2, 4));
  EXPECT_THROW(centerline(frame, 5), std::invalid_argument);
}

}  // namespace
}  // namespace parpde::core
