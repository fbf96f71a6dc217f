// Layer-level unit tests: shapes, known-value forwards, caching rules, and
// parameter bookkeeping.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "helpers.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/init.hpp"
#include "nn/sequential.hpp"
#include "util/random.hpp"

namespace parpde::nn {
namespace {

using parpde::testing::expect_tensors_close;

TEST(Conv2d, SamePaddingPreservesSpatialSize) {
  Conv2d conv(4, 6, 5);  // pad defaults to (k-1)/2
  util::Rng rng(1);
  conv.init(rng);
  const Tensor x({2, 4, 10, 12});
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 6, 10, 12}));
}

TEST(Conv2d, ValidPaddingShrinks) {
  Conv2d conv(2, 3, 5, 0);
  util::Rng rng(1);
  conv.init(rng);
  const Tensor y = conv.forward(Tensor({1, 2, 9, 9}));
  EXPECT_EQ(y.shape(), (Shape{1, 3, 5, 5}));
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  // 1->1 channels, 3x3 kernel with a 1 in the center: same-padded conv is the
  // identity.
  Conv2d conv(1, 1, 3);
  conv.weight().fill(0.0f);
  conv.weight().at(0, 0, 1, 1) = 1.0f;
  conv.bias().fill(0.0f);
  Tensor x({1, 1, 4, 4});
  for (std::int64_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  expect_tensors_close(conv.forward(x), x);
}

TEST(Conv2d, BiasShiftsOutput) {
  Conv2d conv(1, 2, 3);
  conv.weight().fill(0.0f);
  conv.bias()[0] = 1.5f;
  conv.bias()[1] = -2.0f;
  const Tensor y = conv.forward(Tensor({1, 1, 3, 3}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 2, 2), -2.0f);
}

TEST(Conv2d, AveragingKernelComputesMean) {
  Conv2d conv(1, 1, 3, 0);
  conv.weight().fill(1.0f / 9.0f);
  conv.bias().fill(0.0f);
  const Tensor x = Tensor::full({1, 1, 3, 3}, 2.0f);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_NEAR(y[0], 2.0f, 1e-6);
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Conv2d conv(3, 4, 3);
  EXPECT_THROW(conv.forward(Tensor({1, 2, 8, 8})), std::invalid_argument);
}

TEST(Conv2d, RejectsInputSmallerThanKernel) {
  Conv2d conv(1, 1, 5, 0);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 3, 3})), std::invalid_argument);
}

TEST(Conv2d, BackwardBeforeForwardThrows) {
  Conv2d conv(1, 1, 3);
  EXPECT_THROW(conv.backward(Tensor({1, 1, 3, 3})), std::logic_error);
}

TEST(Conv2d, ParameterCountMatchesTableI) {
  // Table I, layer 2: 6 -> 16 channels, 5x5 kernel.
  Conv2d conv(6, 16, 5);
  EXPECT_EQ(conv.parameter_count(), 6 * 16 * 5 * 5 + 16);
  const auto params = conv.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].value->shape(), (Shape{16, 6, 5, 5}));
  EXPECT_EQ(params[1].value->shape(), (Shape{16}));
}

TEST(Conv2d, ZeroGradClearsGradients) {
  Conv2d conv(1, 1, 3);
  util::Rng rng(2);
  conv.init(rng);
  const Tensor x = Tensor::full({1, 1, 4, 4}, 1.0f);
  conv.forward(x);
  conv.backward(Tensor::full({1, 1, 4, 4}, 1.0f));
  conv.zero_grad();
  for (const auto& p : conv.parameters()) {
    for (std::int64_t i = 0; i < p.grad->size(); ++i) {
      EXPECT_EQ((*p.grad)[i], 0.0f);
    }
  }
}

TEST(LeakyReLU, ForwardMatchesEq2) {
  LeakyReLU act(0.01f);
  const Tensor x = Tensor::from({4}, {-2.0f, -0.5f, 0.0f, 3.0f});
  const Tensor y = act.forward(x);
  EXPECT_FLOAT_EQ(y[0], -0.02f);
  EXPECT_FLOAT_EQ(y[1], -0.005f);
  EXPECT_FLOAT_EQ(y[2], 0.0f);
  EXPECT_FLOAT_EQ(y[3], 3.0f);
}

TEST(LeakyReLU, BackwardUsesSlopeOnNegatives) {
  LeakyReLU act(0.01f);
  const Tensor x = Tensor::from({3}, {-1.0f, 0.0f, 2.0f});
  act.forward(x);
  const Tensor g = act.backward(Tensor::from({3}, {1.0f, 1.0f, 1.0f}));
  EXPECT_FLOAT_EQ(g[0], 0.01f);
  EXPECT_FLOAT_EQ(g[1], 1.0f);  // subgradient at 0: positive branch
  EXPECT_FLOAT_EQ(g[2], 1.0f);
}

TEST(ReLU, ClampsNegatives) {
  ReLU act;
  const Tensor y = act.forward(Tensor::from({2}, {-1.0f, 2.0f}));
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
}

TEST(Tanh, ForwardAndDerivative) {
  Tanh act;
  const Tensor y = act.forward(Tensor::from({1}, {0.5f}));
  EXPECT_NEAR(y[0], std::tanh(0.5f), 1e-6);
  const Tensor g = act.backward(Tensor::from({1}, {1.0f}));
  EXPECT_NEAR(g[0], 1.0f - std::tanh(0.5f) * std::tanh(0.5f), 1e-6);
}

TEST(ConvTranspose2d, GrowsSpatialSize) {
  ConvTranspose2d deconv(2, 3, 5);
  util::Rng rng(4);
  deconv.init(rng);
  const Tensor y = deconv.forward(Tensor({1, 2, 6, 6}));
  EXPECT_EQ(y.shape(), (Shape{1, 3, 10, 10}));
}

TEST(ConvTranspose2d, InvertsValidConvShape) {
  // Valid conv shrinks by k-1; transpose conv restores the size.
  Conv2d conv(1, 2, 5, 0);
  ConvTranspose2d deconv(2, 1, 5);
  util::Rng rng(5);
  conv.init(rng);
  deconv.init(rng);
  const Tensor x({1, 1, 12, 12});
  const Tensor y = deconv.forward(conv.forward(x));
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(ConvTranspose2d, SingleTapScattersKernel) {
  ConvTranspose2d deconv(1, 1, 3);
  for (std::int64_t i = 0; i < 9; ++i) {
    deconv.weight()[i] = static_cast<float>(i + 1);
  }
  deconv.bias().fill(0.0f);
  Tensor x({1, 1, 1, 1});
  x[0] = 2.0f;
  const Tensor y = deconv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 3, 3}));
  for (std::int64_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(y[i], 2.0f * static_cast<float>(i + 1));
  }
}

TEST(Sequential, ChainsShapes) {
  Sequential model;
  util::Rng rng(6);
  model.emplace<Conv2d>(4, 6, 5).init(rng);
  model.emplace<LeakyReLU>(0.01f);
  model.emplace<Conv2d>(6, 4, 5).init(rng);
  const Tensor y = model.forward(Tensor({1, 4, 16, 16}));
  EXPECT_EQ(y.shape(), (Shape{1, 4, 16, 16}));
  EXPECT_EQ(model.layer_count(), 3u);
}

TEST(Sequential, CollectsAllParameters) {
  Sequential model;
  util::Rng rng(7);
  model.emplace<Conv2d>(1, 2, 3).init(rng);
  model.emplace<LeakyReLU>(0.01f);
  model.emplace<Conv2d>(2, 1, 3).init(rng);
  EXPECT_EQ(model.parameters().size(), 4u);
  EXPECT_EQ(model.parameter_count(), (1 * 2 * 9 + 2) + (2 * 1 * 9 + 1));
}

// The parameters-only backward skips the first layer's input gradient and
// must leave every parameter gradient bit-identical to backward().
TEST(Sequential, BackwardParamsMatchesBackwardBitwise) {
  auto build = [] {
    auto model = std::make_unique<Sequential>();
    util::Rng rng(9);
    model->emplace<Conv2d>(4, 6, 5, 0).init(rng);
    model->emplace<LeakyReLU>(0.01f);
    model->emplace<Conv2d>(6, 3, 3).init(rng);
    model->emplace<LeakyReLU>(0.01f);
    return model;
  };
  Tensor x({3, 4, 13, 11});
  Tensor dy({3, 3, 9, 7});
  util::Rng rng(10);
  rng.fill_uniform(x.values(), -1.0f, 1.0f);
  rng.fill_uniform(dy.values(), -1.0f, 1.0f);

  auto full = build();
  auto params_only = build();
  for (int pass = 0; pass < 2; ++pass) {  // gradients accumulate
    full->forward(x);
    full->backward(dy);
    params_only->forward(x);
    params_only->backward_params(dy);
  }
  const auto want = full->parameters();
  const auto got = params_only->parameters();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    ASSERT_TRUE(got[p].grad->same_shape(*want[p].grad));
    EXPECT_EQ(std::memcmp(got[p].grad->data(), want[p].grad->data(),
                          static_cast<std::size_t>(want[p].grad->size()) *
                              sizeof(float)),
              0)
        << want[p].name;
  }
}

TEST(Conv2d, BackwardParamsBeforeForwardThrows) {
  Conv2d conv(1, 1, 3);
  EXPECT_THROW(conv.backward_params(Tensor({1, 1, 4, 4})), std::logic_error);
}

TEST(Sequential, RejectsNullModule) {
  Sequential model;
  EXPECT_THROW(model.add(nullptr), std::invalid_argument);
}

TEST(Init, GlorotBoundsRespectFanSizes) {
  Tensor w({16, 6, 5, 5});
  util::Rng rng(8);
  glorot_uniform(w, 6 * 25, 16 * 25, rng);
  const float bound = std::sqrt(6.0f / (6 * 25 + 16 * 25));
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < w.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(w[i]));
  }
  EXPECT_LE(max_abs, bound * 1.0001f);
  EXPECT_GT(max_abs, bound * 0.5f);  // fills the range
}

TEST(Init, RejectsBadFan) {
  Tensor w({2, 2});
  util::Rng rng(9);
  EXPECT_THROW(glorot_uniform(w, 0, 4, rng), std::invalid_argument);
  EXPECT_THROW(he_uniform(w, -1, rng), std::invalid_argument);
}

}  // namespace
}  // namespace parpde::nn
