#include "tensor/ops.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace parpde::ops {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* what) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}

void check_nchw(const Tensor& x, const char* what) {
  if (x.ndim() != 4) {
    throw std::invalid_argument(std::string(what) + ": expected NCHW tensor, got " +
                                shape_to_string(x.shape()));
  }
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out(a.shape());
  for (std::int64_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

void axpy(Tensor& a, float s, const Tensor& b) {
  check_same_shape(a, b, "axpy");
  float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.size(); ++i) pa[i] += s * pb[i];
}

void scale(Tensor& a, float s) {
  float* pa = a.data();
  for (std::int64_t i = 0; i < a.size(); ++i) pa[i] *= s;
}

double sum(const Tensor& a) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) acc += a[i];
  return acc;
}

double mean(const Tensor& a) {
  if (a.size() == 0) return 0.0;
  return sum(a) / static_cast<double>(a.size());
}

double max_abs(const Tensor& a) {
  double m = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, static_cast<double>(std::fabs(a[i])));
  }
  return m;
}

double rms(const Tensor& a) {
  if (a.size() == 0) return 0.0;
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(a[i]);
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

double l2_distance(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "l2_distance");
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return std::sqrt(acc);
}

std::uint64_t count_nonfinite(const float* x, std::int64_t n) {
  std::uint64_t bad = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, &x[i], sizeof(bits));
    bad += static_cast<std::uint64_t>((bits & 0x7f800000u) == 0x7f800000u);
  }
  return bad;
}

Tensor pad_nchw(const Tensor& x, std::int64_t pad, float value) {
  check_nchw(x, "pad_nchw");
  if (pad < 0) throw std::invalid_argument("pad_nchw: negative pad");
  const auto n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out = Tensor::full({n, c, h + 2 * pad, w + 2 * pad}, value);
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t ic = 0; ic < c; ++ic) {
      for (std::int64_t ih = 0; ih < h; ++ih) {
        const float* src = x.data() + (((in * c + ic) * h + ih) * w);
        float* dst = out.data() +
                     (((in * c + ic) * (h + 2 * pad) + ih + pad) * (w + 2 * pad) + pad);
        std::memcpy(dst, src, static_cast<std::size_t>(w) * sizeof(float));
      }
    }
  }
  return out;
}

Tensor crop_nchw(const Tensor& x, std::int64_t crop) {
  check_nchw(x, "crop_nchw");
  const auto h = x.dim(2), w = x.dim(3);
  if (crop < 0 || 2 * crop >= h || 2 * crop >= w) {
    throw std::invalid_argument("crop_nchw: crop too large");
  }
  return slice_hw(x, crop, h - 2 * crop, crop, w - 2 * crop);
}

Tensor slice_hw(const Tensor& x, std::int64_t h0, std::int64_t hh,
                std::int64_t w0, std::int64_t ww) {
  check_nchw(x, "slice_hw");
  const auto n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (h0 < 0 || w0 < 0 || h0 + hh > h || w0 + ww > w || hh <= 0 || ww <= 0) {
    throw std::invalid_argument("slice_hw: window out of range");
  }
  Tensor out({n, c, hh, ww});
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t ic = 0; ic < c; ++ic) {
      for (std::int64_t ih = 0; ih < hh; ++ih) {
        const float* src = x.data() + (((in * c + ic) * h + h0 + ih) * w + w0);
        float* dst = out.data() + (((in * c + ic) * hh + ih) * ww);
        std::memcpy(dst, src, static_cast<std::size_t>(ww) * sizeof(float));
      }
    }
  }
  return out;
}

void paste_hw(Tensor& dst, const Tensor& patch, std::int64_t h0, std::int64_t w0) {
  check_nchw(dst, "paste_hw");
  check_nchw(patch, "paste_hw");
  const auto n = dst.dim(0), c = dst.dim(1), h = dst.dim(2), w = dst.dim(3);
  const auto ph = patch.dim(2), pw = patch.dim(3);
  if (patch.dim(0) != n || patch.dim(1) != c || h0 < 0 || w0 < 0 ||
      h0 + ph > h || w0 + pw > w) {
    throw std::invalid_argument("paste_hw: patch does not fit");
  }
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t ic = 0; ic < c; ++ic) {
      for (std::int64_t ih = 0; ih < ph; ++ih) {
        const float* src = patch.data() + (((in * c + ic) * ph + ih) * pw);
        float* out = dst.data() + (((in * c + ic) * h + h0 + ih) * w + w0);
        std::memcpy(out, src, static_cast<std::size_t>(pw) * sizeof(float));
      }
    }
  }
}

Tensor select_sample(const Tensor& x, std::int64_t n) {
  check_nchw(x, "select_sample");
  if (n < 0 || n >= x.dim(0)) throw std::invalid_argument("select_sample: bad index");
  const auto c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t stride = c * h * w;
  std::vector<float> values(static_cast<std::size_t>(stride));
  std::memcpy(values.data(), x.data() + n * stride,
              static_cast<std::size_t>(stride) * sizeof(float));
  return Tensor::from({1, c, h, w}, std::move(values));
}

Tensor stack_samples(const std::vector<Tensor>& samples) {
  if (samples.empty()) throw std::invalid_argument("stack_samples: empty input");
  const auto& first = samples.front();
  check_nchw(first, "stack_samples");
  const auto c = first.dim(1), h = first.dim(2), w = first.dim(3);
  Tensor out({static_cast<std::int64_t>(samples.size()), c, h, w});
  const std::int64_t stride = c * h * w;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    if (s.dim(0) != 1 || s.dim(1) != c || s.dim(2) != h || s.dim(3) != w) {
      throw std::invalid_argument("stack_samples: inconsistent sample shape");
    }
    std::memcpy(out.data() + static_cast<std::int64_t>(i) * stride, s.data(),
                static_cast<std::size_t>(stride) * sizeof(float));
  }
  return out;
}

void gather_samples(const Tensor& stacked,
                    std::span<const std::int64_t> indices, Tensor& out) {
  check_nchw(stacked, "gather_samples");
  const auto c = stacked.dim(1), h = stacked.dim(2), w = stacked.dim(3);
  const std::int64_t stride = c * h * w;
  const auto rows = static_cast<std::int64_t>(indices.size());
  if (out.ndim() != 4 || out.dim(0) != rows || out.dim(1) != c ||
      out.dim(2) != h || out.dim(3) != w) {
    out = Tensor({rows, c, h, w});
  }
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto idx = indices[i];
    if (idx < 0 || idx >= stacked.dim(0)) {
      throw std::invalid_argument("gather_samples: index out of range");
    }
    std::memcpy(out.data() + static_cast<std::int64_t>(i) * stride,
                stacked.data() + idx * stride,
                static_cast<std::size_t>(stride) * sizeof(float));
  }
}

}  // namespace parpde::ops
