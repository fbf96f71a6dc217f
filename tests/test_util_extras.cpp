// Newer utility surface: ASCII field rendering, frame-file I/O and weighted
// MSE loss.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "data/dataset.hpp"
#include "helpers.hpp"
#include "nn/loss.hpp"
#include "util/ascii_plot.hpp"

namespace parpde {
namespace {

Tensor ramp_frame(std::int64_t c, std::int64_t n) {
  Tensor t({c, n, n});
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(i) / static_cast<float>(t.size());
  }
  return t;
}

TEST(AsciiPlot, RendersExpectedGridSize) {
  const Tensor frame = ramp_frame(2, 16);
  util::AsciiPlotOptions opts;
  opts.max_width = 8;
  opts.max_height = 4;
  const std::string s = util::render_field(frame, 0, opts);
  // 4 rows of 8 characters + newlines.
  EXPECT_EQ(s.size(), 4u * 9u);
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(AsciiPlot, ExtremesMapToRampEnds) {
  Tensor frame({1, 2, 2});
  frame[0] = 0.0f;
  frame[1] = 0.0f;
  frame[2] = 1.0f;
  frame[3] = 1.0f;
  util::AsciiPlotOptions opts;
  opts.max_width = 2;
  opts.max_height = 2;
  const std::string s = util::render_field(frame, 0, opts);
  EXPECT_EQ(s[0], ' ');   // minimum -> lightest
  EXPECT_EQ(s[3], '@');   // maximum -> darkest
}

TEST(AsciiPlot, FixedRangeOverridesFieldRange) {
  Tensor frame({1, 1, 1});
  frame[0] = 0.5f;
  util::AsciiPlotOptions opts;
  opts.max_width = 1;
  opts.max_height = 1;
  opts.lo = 0.0;
  opts.hi = 10.0;  // 0.5 is near the bottom of this range
  const std::string s = util::render_field(frame, 0, opts);
  EXPECT_EQ(s[0], ' ');
}

TEST(AsciiPlot, ComparisonContainsBothPanes) {
  const Tensor target = ramp_frame(1, 8);
  Tensor pred = target;
  pred[10] += 0.5f;
  const std::string s = util::render_comparison(pred, target, 0, "demo");
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("| prediction"), std::string::npos);
}

TEST(AsciiPlot, RejectsBadInput) {
  EXPECT_THROW(util::render_field(Tensor({1, 2, 2}), 3), std::invalid_argument);
  EXPECT_THROW(util::render_comparison(Tensor({1, 2, 2}), Tensor({1, 3, 3}), 0,
                                       "x"),
               std::invalid_argument);
}

TEST(FrameFiles, RoundtripPreservesFrames) {
  std::vector<Tensor> frames;
  for (int f = 0; f < 5; ++f) frames.push_back(ramp_frame(3, 6));
  frames[2][7] = -4.5f;
  const std::string path = ::testing::TempDir() + "/parpde_frames.ppfr";
  data::save_frames(path, frames);
  const auto loaded = data::load_frames(path);
  ASSERT_EQ(loaded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    parpde::testing::expect_tensors_equal(loaded[i], frames[i]);
  }
}

TEST(FrameFiles, RejectsGarbageFile) {
  const std::string path = ::testing::TempDir() + "/parpde_garbage.ppfr";
  {
    std::ofstream out(path);
    out << "not a frame file";
  }
  EXPECT_THROW(data::load_frames(path), std::runtime_error);
  EXPECT_THROW(data::load_frames("/nonexistent.ppfr"), std::runtime_error);
}

TEST(WeightedMSE, EqualWeightsMatchPlainMSE) {
  const Tensor pred = ramp_frame(2, 4);
  Tensor target = ramp_frame(2, 4);
  target[3] += 1.0f;
  const nn::WeightedMSELoss wmse({1.0, 1.0});
  const nn::MSELoss mse;
  EXPECT_NEAR(wmse.compute(pred, target, nullptr),
              mse.compute(pred, target, nullptr), 1e-9);
}

TEST(WeightedMSE, WeightsScaleChannelContributions) {
  // Error only in channel 1: doubling its weight doubles the loss.
  Tensor pred({2, 2, 2});
  Tensor target({2, 2, 2});
  for (std::int64_t i = 4; i < 8; ++i) pred[i] = 1.0f;
  const double w1 = nn::WeightedMSELoss({1.0, 1.0}).compute(pred, target, nullptr);
  const double w2 = nn::WeightedMSELoss({1.0, 2.0}).compute(pred, target, nullptr);
  EXPECT_NEAR(w2, 2.0 * w1, 1e-9);
  // Error in a zero-weighted channel vanishes.
  EXPECT_EQ(nn::WeightedMSELoss({1.0, 0.0}).compute(pred, target, nullptr), 0.0);
}

TEST(WeightedMSE, GradientMatchesFiniteDifferences) {
  util::Rng rng(4);
  Tensor pred({1, 2, 3, 3});
  Tensor target({1, 2, 3, 3});
  rng.fill_uniform(pred.values(), -1.0f, 1.0f);
  rng.fill_uniform(target.values(), -1.0f, 1.0f);
  const nn::WeightedMSELoss loss({0.5, 3.0});
  Tensor grad;
  loss.compute(pred, target, &grad);
  auto objective = [&] { return loss.compute(pred, target, nullptr); };
  const Tensor grad_num = parpde::testing::numeric_gradient(objective, pred);
  parpde::testing::expect_tensors_close(grad, grad_num, 2e-3, 2e-2);
}

TEST(WeightedMSE, RejectsBadConfiguration) {
  EXPECT_THROW(nn::WeightedMSELoss({}), std::invalid_argument);
  EXPECT_THROW(nn::WeightedMSELoss({-1.0}), std::invalid_argument);
  const nn::WeightedMSELoss loss({1.0, 1.0});
  EXPECT_THROW(loss.compute(Tensor({3, 2, 2}), Tensor({3, 2, 2}), nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace parpde
