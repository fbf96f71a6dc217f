#include "nn/conv2d.hpp"

#include <stdexcept>

#include "nn/init.hpp"
#include "util/telemetry.hpp"

namespace parpde::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t pad)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_(pad < 0 ? (kernel - 1) / 2 : pad),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels, kernel, kernel}),
      bias_grad_({out_channels}) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0) {
    throw std::invalid_argument("Conv2d: bad configuration");
  }
}

void Conv2d::init(util::Rng& rng) {
  glorot_uniform(weight_, in_channels_ * kernel_ * kernel_,
                 out_channels_ * kernel_ * kernel_, rng);
  bias_.fill(0.0f);
}

Tensor Conv2d::forward(const Tensor& x) {
  if (x.ndim() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d::forward: expected [N," +
                                std::to_string(in_channels_) + ",H,W], got " +
                                shape_to_string(x.shape()));
  }
  input_ = x;
  static telemetry::Counter& calls = telemetry::counter("nn.conv2d.forward");
  calls.add(1);
  telemetry::Span span("conv2d.forward", "nn");
  // dW's im2row rows, the largest buffer the layer keeps, are sized on the
  // first forward rather than in the backward: allocated after the batch's
  // tensors have churned the heap, they raised training's peak RSS ~2 MiB.
  conv2d_backward_reserve(
      ConvGeometry{in_channels_, x.dim(2), x.dim(3), kernel_, pad_}, x.dim(0),
      ws_);
  // Direct convolution over the whole batch, bit-identical to the im2col +
  // GEMM lowering it replaced.
  Tensor y;
  conv2d_forward_batched(x, weight_, bias_, pad_, y, ws_);
  return y;
}

void Conv2d::check_backward(const Tensor& grad_out) const {
  if (input_.empty()) throw std::logic_error("Conv2d::backward before forward");
  const ConvGeometry g{in_channels_, input_.dim(2), input_.dim(3), kernel_, pad_};
  if (grad_out.ndim() != 4 || grad_out.dim(0) != input_.dim(0) ||
      grad_out.dim(1) != out_channels_ || grad_out.dim(2) != g.out_height() ||
      grad_out.dim(3) != g.out_width()) {
    throw std::invalid_argument("Conv2d::backward: gradient shape mismatch");
  }
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  check_backward(grad_out);
  static telemetry::Counter& calls = telemetry::counter("nn.conv2d.backward");
  calls.add(1);
  telemetry::Span span("conv2d.backward", "nn");
  Tensor grad_in;
  // Batched backward: per sample group, one im2row + GEMM for dW; the data
  // gradient comes straight from dY (no column matrix).
  conv2d_backward_batched(input_, grad_out, weight_, pad_, grad_in,
                          weight_grad_, bias_grad_, ws_);
  return grad_in;
}

void Conv2d::backward_params(const Tensor& grad_out) {
  check_backward(grad_out);
  static telemetry::Counter& calls = telemetry::counter("nn.conv2d.backward");
  calls.add(1);
  telemetry::Span span("conv2d.backward_params", "nn");
  conv2d_backward_weights_batched(input_, grad_out, pad_, weight_grad_,
                                  bias_grad_, ws_);
}

std::vector<ParamRef> Conv2d::parameters() {
  return {{&weight_, &weight_grad_, name() + ".weight"},
          {&bias_, &bias_grad_, name() + ".bias"}};
}

std::string Conv2d::name() const {
  return "conv2d(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ",k=" + std::to_string(kernel_) +
         ",p=" + std::to_string(pad_) + ")";
}

}  // namespace parpde::nn
