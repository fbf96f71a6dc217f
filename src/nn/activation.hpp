#pragma once

// Stateless activation layers. The paper uses leaky ReLU with a fixed
// epsilon = 0.01 (Eq. (2)); plain ReLU (Eq. (1)) and tanh are provided for the
// activation ablation.

#include "nn/module.hpp"

namespace parpde::nn {

// The pointwise kernels behind the layers, shared with ForwardPlan's
// standalone activation steps (x == y allowed).
void leaky_relu_forward(const float* x, float* y, std::int64_t n, float slope);
void relu_forward(const float* x, float* y, std::int64_t n);
void tanh_forward(const float* x, float* y, std::int64_t n);

class LeakyReLU final : public Module {
 public:
  explicit LeakyReLU(float negative_slope = 0.01f)
      : negative_slope_(negative_slope) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] float negative_slope() const { return negative_slope_; }

 private:
  float negative_slope_;
  Tensor input_;
};

class ReLU final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "relu"; }

 private:
  Tensor input_;
};

class Tanh final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "tanh"; }

 private:
  Tensor output_;
};

}  // namespace parpde::nn
