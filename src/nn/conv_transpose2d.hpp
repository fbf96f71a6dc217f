#pragma once

// Transpose ("de-") convolution, stride 1, no padding: output grows by k-1 in
// each spatial direction. This is the fourth border-handling strategy the
// paper lists in Sec. III ("adding de-convolutional layers or the transpose
// convolution"), flagged there as under investigation — implemented here as
// the extension feature and exercised by the encoder-decoder model variant.

#include "nn/module.hpp"
#include "util/random.hpp"

namespace parpde::nn {

// y [n, Cout, h+k-1, width+k-1] = w (*)^T x + bias for x [n, Cin, h, width]
// and w [Cin, Cout, k, k]; y is fully overwritten. The kernel behind
// ConvTranspose2d::forward and ForwardPlan's deconv step.
void conv_transpose2d_forward(const float* x, const float* w, const float* bias,
                              std::int64_t n, std::int64_t cin,
                              std::int64_t cout, std::int64_t h,
                              std::int64_t width, std::int64_t kernel,
                              float* y);

class ConvTranspose2d final : public Module {
 public:
  ConvTranspose2d(std::int64_t in_channels, std::int64_t out_channels,
                  std::int64_t kernel);

  void init(util::Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> parameters() override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::int64_t in_channels() const { return in_channels_; }
  [[nodiscard]] std::int64_t out_channels() const { return out_channels_; }
  [[nodiscard]] std::int64_t kernel() const { return kernel_; }
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_;

  Tensor weight_;       // [Cin, Cout, k, k] (PyTorch ConvTranspose2d layout)
  Tensor bias_;         // [Cout]
  Tensor weight_grad_;
  Tensor bias_grad_;

  Tensor input_;
};

}  // namespace parpde::nn
