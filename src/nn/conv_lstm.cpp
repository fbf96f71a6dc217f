#include "nn/conv_lstm.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/ops.hpp"

namespace parpde::nn {

namespace {

inline float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

ConvLSTM::ConvLSTM(std::int64_t in_channels, std::int64_t hidden_channels,
                   std::int64_t out_channels, std::int64_t kernel)
    : in_channels_(in_channels),
      hidden_channels_(hidden_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_((kernel - 1) / 2),
      wx_({4 * hidden_channels, in_channels, kernel, kernel}),
      wh_({4 * hidden_channels, hidden_channels, kernel, kernel}),
      b_({4 * hidden_channels}),
      wy_({out_channels, hidden_channels, 1, 1}),
      by_({out_channels}),
      wx_grad_({4 * hidden_channels, in_channels, kernel, kernel}),
      wh_grad_({4 * hidden_channels, hidden_channels, kernel, kernel}),
      b_grad_({4 * hidden_channels}),
      wy_grad_({out_channels, hidden_channels, 1, 1}),
      by_grad_({out_channels}) {
  if (in_channels <= 0 || hidden_channels <= 0 || out_channels <= 0 ||
      kernel <= 0 || kernel % 2 == 0) {
    throw std::invalid_argument("ConvLSTM: bad configuration (odd kernel only)");
  }
}

void ConvLSTM::init(util::Rng& rng) {
  glorot_uniform(wx_, in_channels_ * kernel_ * kernel_,
                 4 * hidden_channels_ * kernel_ * kernel_, rng);
  glorot_uniform(wh_, hidden_channels_ * kernel_ * kernel_,
                 4 * hidden_channels_ * kernel_ * kernel_, rng);
  glorot_uniform(wy_, hidden_channels_, out_channels_, rng);
  b_.fill(0.0f);
  by_.fill(0.0f);
  // Forget-gate bias +1: the cell starts by remembering.
  for (std::int64_t c = 0; c < hidden_channels_; ++c) {
    b_[kForget * hidden_channels_ + c] = 1.0f;
  }
}

Tensor ConvLSTM::forward(const Tensor& x) {
  if (x.ndim() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("ConvLSTM::forward: expected [T," +
                                std::to_string(in_channels_) + ",H,W], got " +
                                shape_to_string(x.shape()));
  }
  const std::int64_t T = x.dim(0);
  height_ = x.dim(2);
  width_ = x.dim(3);
  const std::int64_t plane = height_ * width_;

  steps_.assign(static_cast<std::size_t>(T), StepCache{});
  const Shape hidden{1, hidden_channels_, height_, width_};
  Tensor y({T, out_channels_, height_, width_});
  Tensor h(hidden);
  Tensor c(hidden);
  Tensor zx, zh, yt;
  const Tensor no_bias;

  for (std::int64_t t = 0; t < T; ++t) {
    StepCache& cache = steps_[static_cast<std::size_t>(t)];
    cache.x = Tensor::from(
        {1, in_channels_, height_, width_},
        std::vector<float>(x.data() + t * in_channels_ * plane,
                           x.data() + (t + 1) * in_channels_ * plane));
    cache.h_prev = h;
    cache.c_prev = c;

    // Fused gate pre-activations z = Wx * x_t + Wh * h_{t-1} + b.
    conv2d_forward_batched(cache.x, wx_, b_, pad_, zx, ws_);
    conv2d_forward_batched(cache.h_prev, wh_, no_bias, pad_, zh, ws_);
    ops::axpy(zx, 1.0f, zh);

    // Activations: i, f, o sigmoid; g tanh. Stored post-activation.
    cache.gates = Tensor({1, 4 * hidden_channels_, height_, width_});
    for (std::int64_t g = 0; g < 4; ++g) {
      const std::int64_t off = g * hidden_channels_ * plane;
      float* dst = cache.gates.data() + off;
      const float* src = zx.data() + off;
      if (g == kCell) {
        for (std::int64_t i = 0; i < hidden_channels_ * plane; ++i) {
          dst[i] = std::tanh(src[i]);
        }
      } else {
        for (std::int64_t i = 0; i < hidden_channels_ * plane; ++i) {
          dst[i] = sigmoid(src[i]);
        }
      }
    }

    // c_t = f .* c_{t-1} + i .* g ;  h_t = o .* tanh(c_t).
    cache.c = Tensor(hidden);
    cache.tanh_c = Tensor(hidden);
    const float* gi = cache.gates.data() + kInput * hidden_channels_ * plane;
    const float* gf = cache.gates.data() + kForget * hidden_channels_ * plane;
    const float* gg = cache.gates.data() + kCell * hidden_channels_ * plane;
    const float* go = cache.gates.data() + kOutput * hidden_channels_ * plane;
    for (std::int64_t i = 0; i < hidden_channels_ * plane; ++i) {
      const float ct = gf[i] * cache.c_prev[i] + gi[i] * gg[i];
      cache.c[i] = ct;
      const float th = std::tanh(ct);
      cache.tanh_c[i] = th;
      h[i] = go[i] * th;
    }
    c = cache.c;

    // Readout y_t = Wy (1x1) * h_t + by.
    conv2d_forward_batched(h, wy_, by_, 0, yt, ws_);
    std::copy(yt.data(), yt.data() + out_channels_ * plane,
              y.data() + t * out_channels_ * plane);
    // `h` already holds h_t for the next iteration; stash it for BPTT by
    // keeping the gates/c caches (h_t is recomputed from them cheaply).
  }
  return y;
}

Tensor ConvLSTM::backward(const Tensor& grad_out) {
  const std::int64_t T = static_cast<std::int64_t>(steps_.size());
  if (T == 0) throw std::logic_error("ConvLSTM::backward before forward");
  const std::int64_t plane = height_ * width_;
  if (grad_out.ndim() != 4 || grad_out.dim(0) != T ||
      grad_out.dim(1) != out_channels_ || grad_out.dim(2) != height_ ||
      grad_out.dim(3) != width_) {
    throw std::invalid_argument("ConvLSTM::backward: gradient shape mismatch");
  }

  const Shape hidden{1, hidden_channels_, height_, width_};
  Tensor grad_in({T, in_channels_, height_, width_});
  Tensor dh_next(hidden);
  Tensor dc_next(hidden);
  Tensor dz({1, 4 * hidden_channels_, height_, width_});
  Tensor dyt({1, out_channels_, height_, width_});
  Tensor dh(hidden);
  Tensor dx({1, in_channels_, height_, width_});
  Tensor dh_prev(hidden);
  Tensor h_t(hidden);
  Tensor no_bias_grad;

  for (std::int64_t t = T - 1; t >= 0; --t) {
    const StepCache& cache = steps_[static_cast<std::size_t>(t)];
    const float* gi = cache.gates.data() + kInput * hidden_channels_ * plane;
    const float* gf = cache.gates.data() + kForget * hidden_channels_ * plane;
    const float* gg = cache.gates.data() + kCell * hidden_channels_ * plane;
    const float* go = cache.gates.data() + kOutput * hidden_channels_ * plane;

    // h_t = o .* tanh(c_t) (recomputed from caches for the readout backward).
    for (std::int64_t i = 0; i < hidden_channels_ * plane; ++i) {
      h_t[i] = go[i] * cache.tanh_c[i];
    }

    // Readout backward: dWy += dy ⊗ h_t ; dh = Wy^T dy + dh_next.
    std::copy(grad_out.data() + t * out_channels_ * plane,
              grad_out.data() + (t + 1) * out_channels_ * plane, dyt.data());
    conv2d_backward_batched(h_t, dyt, wy_, 0, dh, wy_grad_, by_grad_, ws_);
    ops::axpy(dh, 1.0f, dh_next);

    // Cell/gate backward.
    float* dzi = dz.data() + kInput * hidden_channels_ * plane;
    float* dzf = dz.data() + kForget * hidden_channels_ * plane;
    float* dzg = dz.data() + kCell * hidden_channels_ * plane;
    float* dzo = dz.data() + kOutput * hidden_channels_ * plane;
    for (std::int64_t i = 0; i < hidden_channels_ * plane; ++i) {
      const float th = cache.tanh_c[i];
      const float dc = dh[i] * go[i] * (1.0f - th * th) + dc_next[i];
      dzo[i] = dh[i] * th * go[i] * (1.0f - go[i]);
      dzf[i] = dc * cache.c_prev[i] * gf[i] * (1.0f - gf[i]);
      dzi[i] = dc * gg[i] * gi[i] * (1.0f - gi[i]);
      dzg[i] = dc * gi[i] * (1.0f - gg[i] * gg[i]);
      dc_next[i] = dc * gf[i];
    }

    // Gate-conv backward: parameters and both data paths.
    conv2d_backward_batched(cache.x, dz, wx_, pad_, dx, wx_grad_, b_grad_, ws_);
    conv2d_backward_batched(cache.h_prev, dz, wh_, pad_, dh_prev, wh_grad_,
                            no_bias_grad, ws_);

    std::copy(dx.data(), dx.data() + in_channels_ * plane,
              grad_in.data() + t * in_channels_ * plane);
    dh_next = dh_prev;
  }
  return grad_in;
}

std::vector<ParamRef> ConvLSTM::parameters() {
  return {{&wx_, &wx_grad_, "conv_lstm.wx"},
          {&wh_, &wh_grad_, "conv_lstm.wh"},
          {&b_, &b_grad_, "conv_lstm.b"},
          {&wy_, &wy_grad_, "conv_lstm.wy"},
          {&by_, &by_grad_, "conv_lstm.by"}};
}

std::string ConvLSTM::name() const {
  return "conv_lstm(" + std::to_string(in_channels_) + "->" +
         std::to_string(hidden_channels_) + "->" +
         std::to_string(out_channels_) + ",k=" + std::to_string(kernel_) + ")";
}

}  // namespace parpde::nn
