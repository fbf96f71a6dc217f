#include "nn/activation.hpp"

#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace parpde::nn {

namespace {

// Elementwise maps write disjoint outputs, so threading them is
// bit-deterministic. The grain keeps the tiny test tensors inline.
constexpr std::int64_t kElementwiseGrain = 1 << 14;

}  // namespace

void leaky_relu_forward(const float* x, float* y, std::int64_t n, float slope) {
  util::ThreadPool::global().parallel_for(
      n, kElementwiseGrain, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          const float v = x[i];
          y[i] = v >= 0.0f ? v : slope * v;
        }
      });
}

void relu_forward(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void tanh_forward(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

Tensor LeakyReLU::forward(const Tensor& x) {
  input_ = x;
  Tensor y(x.shape());
  leaky_relu_forward(x.data(), y.data(), x.size(), negative_slope_);
  return y;
}

Tensor LeakyReLU::backward(const Tensor& grad_out) {
  if (input_.empty()) throw std::logic_error("LeakyReLU::backward before forward");
  if (!grad_out.same_shape(input_)) {
    throw std::invalid_argument("LeakyReLU::backward: gradient shape mismatch");
  }
  Tensor grad_in(input_.shape());
  const float eps = negative_slope_;
  util::ThreadPool::global().parallel_for(
      input_.size(), kElementwiseGrain, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          // Subgradient at exactly 0 follows the positive branch (paper
          // Sec. II: "a value for this unlikely case should be selected").
          grad_in[i] = input_[i] >= 0.0f ? grad_out[i] : eps * grad_out[i];
        }
      });
  return grad_in;
}

std::string LeakyReLU::name() const {
  return "leaky_relu(" + std::to_string(negative_slope_) + ")";
}

Tensor ReLU::forward(const Tensor& x) {
  input_ = x;
  Tensor y(x.shape());
  relu_forward(x.data(), y.data(), x.size());
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (input_.empty()) throw std::logic_error("ReLU::backward before forward");
  if (!grad_out.same_shape(input_)) {
    throw std::invalid_argument("ReLU::backward: gradient shape mismatch");
  }
  Tensor grad_in(input_.shape());
  for (std::int64_t i = 0; i < input_.size(); ++i) {
    grad_in[i] = input_[i] > 0.0f ? grad_out[i] : 0.0f;
  }
  return grad_in;
}

Tensor Tanh::forward(const Tensor& x) {
  Tensor y(x.shape());
  tanh_forward(x.data(), y.data(), x.size());
  output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  if (output_.empty()) throw std::logic_error("Tanh::backward before forward");
  if (!grad_out.same_shape(output_)) {
    throw std::invalid_argument("Tanh::backward: gradient shape mismatch");
  }
  Tensor grad_in(output_.shape());
  for (std::int64_t i = 0; i < output_.size(); ++i) {
    grad_in[i] = grad_out[i] * (1.0f - output_[i] * output_[i]);
  }
  return grad_in;
}

}  // namespace parpde::nn
