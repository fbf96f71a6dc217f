#pragma once

// Convolutional LSTM — the extension the paper names as future work
// (Sec. IV-B / V: "incorporation of more complex layers, such as recurrent
// and LSTM layers. For these layers, the data must be fed into the network as
// time-series"). One cell with convolutional input/hidden transforms, a
// 1x1-conv readout, and full backpropagation through time.
//
// Sequence convention: the batch dimension is TIME. forward() consumes
// [T, Cin, H, W] as one sequence (hidden state starts at zero), produces the
// per-step readout [T, Cout, H, W], and backward() runs BPTT over the same
// sequence. This makes the cell a drop-in Module for the existing training
// loop with shuffle disabled.

#include "nn/conv_ops.hpp"
#include "nn/module.hpp"
#include "util/random.hpp"

namespace parpde::nn {

class ConvLSTM final : public Module {
 public:
  ConvLSTM(std::int64_t in_channels, std::int64_t hidden_channels,
           std::int64_t out_channels, std::int64_t kernel);

  // Glorot init for the gate and readout convs; forget-gate bias starts at +1
  // (standard LSTM practice, keeps early memory open).
  void init(util::Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> parameters() override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::int64_t hidden_channels() const { return hidden_channels_; }

 private:
  // Gate blocks inside the fused [4*Ch] channel axis, in order.
  enum Gate { kInput = 0, kForget = 1, kCell = 2, kOutput = 3 };

  std::int64_t in_channels_;
  std::int64_t hidden_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_;
  std::int64_t pad_;

  Tensor wx_;  // [4Ch, Cin, k, k] input-to-gates conv
  Tensor wh_;  // [4Ch, Ch, k, k] hidden-to-gates conv
  Tensor b_;   // [4Ch]
  Tensor wy_;  // [Cout, Ch, 1, 1] readout conv
  Tensor by_;  // [Cout]
  Tensor wx_grad_, wh_grad_, b_grad_, wy_grad_, by_grad_;

  // Per-timestep caches for BPTT (filled by forward), each one sample
  // [1, C, H, W] so the convs run the batched kernels.
  struct StepCache {
    Tensor x;       // [1, Cin, H, W]
    Tensor h_prev;  // [1, Ch, H, W]
    Tensor c_prev;  // [1, Ch, H, W]
    Tensor gates;   // [1, 4Ch, H, W], post-activation (i, f, g~tanh, o)
    Tensor c;       // [1, Ch, H, W]
    Tensor tanh_c;  // [1, Ch, H, W]
  };
  std::vector<StepCache> steps_;
  std::int64_t height_ = 0;
  std::int64_t width_ = 0;

  Conv2dWorkspace ws_;  // conv scratch shared by the gate and readout convs
};

}  // namespace parpde::nn
