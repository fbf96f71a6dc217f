#include "nn/conv_transpose2d.hpp"

#include <stdexcept>

#include "nn/init.hpp"

namespace parpde::nn {

void conv_transpose2d_forward(const float* x, const float* w, const float* bias,
                              std::int64_t n, std::int64_t cin,
                              std::int64_t cout, std::int64_t h,
                              std::int64_t width, std::int64_t kernel,
                              float* y) {
  // Direct scatter loop nest: the deconv head is tiny compared with the conv
  // stack, so a GEMM lowering (a column matrix scattered back into the
  // output) has never been worth its memory traffic here.
  const std::int64_t oh = h + kernel - 1, ow = width + kernel - 1;
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t co = 0; co < cout; ++co) {
      float* yplane = y + ((s * cout + co) * oh) * ow;
      const float b = bias != nullptr ? bias[co] : 0.0f;
      for (std::int64_t i = 0; i < oh * ow; ++i) yplane[i] = b;
    }
    for (std::int64_t ci = 0; ci < cin; ++ci) {
      const float* xplane = x + ((s * cin + ci) * h) * width;
      for (std::int64_t co = 0; co < cout; ++co) {
        const float* ker = w + ((ci * cout + co) * kernel) * kernel;
        float* yplane = y + ((s * cout + co) * oh) * ow;
        for (std::int64_t iy = 0; iy < h; ++iy) {
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            float* yrow = yplane + (iy + ky) * ow;
            const float* krow = ker + ky * kernel;
            const float* xrow = xplane + iy * width;
            for (std::int64_t ix = 0; ix < width; ++ix) {
              const float xv = xrow[ix];
              if (xv == 0.0f) continue;
              for (std::int64_t kx = 0; kx < kernel; ++kx) {
                yrow[ix + kx] += xv * krow[kx];
              }
            }
          }
        }
      }
    }
  }
}

ConvTranspose2d::ConvTranspose2d(std::int64_t in_channels,
                                 std::int64_t out_channels, std::int64_t kernel)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      weight_({in_channels, out_channels, kernel, kernel}),
      bias_({out_channels}),
      weight_grad_({in_channels, out_channels, kernel, kernel}),
      bias_grad_({out_channels}) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0) {
    throw std::invalid_argument("ConvTranspose2d: bad configuration");
  }
}

void ConvTranspose2d::init(util::Rng& rng) {
  glorot_uniform(weight_, in_channels_ * kernel_ * kernel_,
                 out_channels_ * kernel_ * kernel_, rng);
  bias_.fill(0.0f);
}

Tensor ConvTranspose2d::forward(const Tensor& x) {
  if (x.ndim() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("ConvTranspose2d::forward: bad input shape " +
                                shape_to_string(x.shape()));
  }
  input_ = x;
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = h + kernel_ - 1, ow = w + kernel_ - 1;
  Tensor y({n, out_channels_, oh, ow});
  // ForwardPlan replays the same kernel, so plan and module graph agree bit
  // for bit.
  conv_transpose2d_forward(x.data(), weight_.data(), bias_.data(), n,
                           in_channels_, out_channels_, h, w, kernel_,
                           y.data());
  return y;
}

Tensor ConvTranspose2d::backward(const Tensor& grad_out) {
  if (input_.empty()) {
    throw std::logic_error("ConvTranspose2d::backward before forward");
  }
  const std::int64_t n = input_.dim(0), h = input_.dim(2), w = input_.dim(3);
  const std::int64_t oh = h + kernel_ - 1, ow = w + kernel_ - 1;
  if (grad_out.ndim() != 4 || grad_out.dim(0) != n ||
      grad_out.dim(1) != out_channels_ || grad_out.dim(2) != oh ||
      grad_out.dim(3) != ow) {
    throw std::invalid_argument("ConvTranspose2d::backward: gradient mismatch");
  }
  Tensor grad_in(input_.shape());
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t co = 0; co < out_channels_; ++co) {
      const float* dyplane = grad_out.data() + ((s * out_channels_ + co) * oh) * ow;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < oh * ow; ++i) acc += dyplane[i];
      bias_grad_[co] += acc;
    }
    for (std::int64_t ci = 0; ci < in_channels_; ++ci) {
      const float* xplane = input_.data() + ((s * in_channels_ + ci) * h) * w;
      float* dxplane = grad_in.data() + ((s * in_channels_ + ci) * h) * w;
      for (std::int64_t co = 0; co < out_channels_; ++co) {
        const float* ker = weight_.data() +
                           ((ci * out_channels_ + co) * kernel_) * kernel_;
        float* dker = weight_grad_.data() +
                      ((ci * out_channels_ + co) * kernel_) * kernel_;
        const float* dyplane =
            grad_out.data() + ((s * out_channels_ + co) * oh) * ow;
        for (std::int64_t iy = 0; iy < h; ++iy) {
          for (std::int64_t ky = 0; ky < kernel_; ++ky) {
            const float* dyrow = dyplane + (iy + ky) * ow;
            const float* krow = ker + ky * kernel_;
            float* dkrow = dker + ky * kernel_;
            const float* xrow = xplane + iy * w;
            float* dxrow = dxplane + iy * w;
            for (std::int64_t ix = 0; ix < w; ++ix) {
              float dx_acc = 0.0f;
              const float xv = xrow[ix];
              for (std::int64_t kx = 0; kx < kernel_; ++kx) {
                const float dy = dyrow[ix + kx];
                dx_acc += krow[kx] * dy;
                dkrow[kx] += xv * dy;
              }
              dxrow[ix] += dx_acc;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

std::vector<ParamRef> ConvTranspose2d::parameters() {
  return {{&weight_, &weight_grad_, name() + ".weight"},
          {&bias_, &bias_grad_, name() + ".bias"}};
}

std::string ConvTranspose2d::name() const {
  return "conv_transpose2d(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ",k=" + std::to_string(kernel_) + ")";
}

}  // namespace parpde::nn
