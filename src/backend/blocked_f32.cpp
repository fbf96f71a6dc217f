#include "backend/kernel_backend.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace parpde::backend {

namespace {

// Same grain the activation layers have always used, so the dispatched
// elementwise passes chunk identically (values are order-independent anyway).
constexpr std::int64_t kElementwiseGrain = 1 << 14;

// fp32 plan state: one shared im2col workspace sized for the widest conv of
// the plan at its maximum geometry (times max_batch for the batched path),
// plus a channel-major staging buffer for the batched GEMM output.
class F32PlanContext final : public PlanContext {
 public:
  F32PlanContext(const std::vector<ConvLayerDesc>& layers, std::int64_t max_h,
                 std::int64_t max_w, std::int64_t max_batch)
      : layers_(layers) {
    std::int64_t h = max_h, w = max_w, peak_col = 0, peak_out = 0;
    for (const ConvLayerDesc& l : layers_) {
      const ConvGeometry g{l.in_channels, h, w, l.kernel, l.pad};
      peak_col =
          std::max(peak_col, g.col_rows() * max_batch * g.col_cols());
      peak_out = std::max(peak_out, l.out_channels * max_batch *
                                        g.out_height() * g.out_width());
      h = g.out_height();
      w = g.out_width();
    }
    col_.resize(static_cast<std::size_t>(peak_col));
    if (max_batch > 1) out_.resize(static_cast<std::size_t>(peak_out));
  }

  [[nodiscard]] std::uint64_t growth_events() const noexcept override {
    return growths_;
  }

  float* col(std::int64_t floats) {
    if (static_cast<std::int64_t>(col_.size()) < floats) {
      col_.resize(static_cast<std::size_t>(floats));
      ++growths_;
    }
    return col_.data();
  }

  float* out(std::int64_t floats) {
    if (static_cast<std::int64_t>(out_.size()) < floats) {
      out_.resize(static_cast<std::size_t>(floats));
      ++growths_;
    }
    return out_.data();
  }

  [[nodiscard]] const ConvLayerDesc& layer(int i) const {
    return layers_[static_cast<std::size_t>(i)];
  }

 private:
  std::vector<ConvLayerDesc> layers_;
  util::AlignedVector<float> col_;
  util::AlignedVector<float> out_;
  std::uint64_t growths_ = 0;
};

// Fused bias + activation epilogue over the channel-major conv output.
// Per element this is the exact float sequence the pre-backend ForwardPlan
// produced with its separate bias and activation passes (t = v + b, then the
// activation formula), so fusing changes nothing but memory traffic.
void fused_epilogue(float* dst, std::int64_t cout, std::int64_t plane,
                    const float* bias, Fused fused, float slope) {
  if (bias == nullptr && fused == Fused::kNone) return;
  util::ThreadPool::global().parallel_for(
      cout, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t c = begin; c < end; ++c) {
          float* row = dst + c * plane;
          const float b = bias != nullptr ? bias[c] : 0.0f;
          switch (fused) {
            case Fused::kNone:
              for (std::int64_t i = 0; i < plane; ++i) row[i] = row[i] + b;
              break;
            case Fused::kLeakyReLU:
              for (std::int64_t i = 0; i < plane; ++i) {
                const float v = row[i] + b;
                row[i] = v >= 0.0f ? v : slope * v;
              }
              break;
            case Fused::kReLU:
              for (std::int64_t i = 0; i < plane; ++i) {
                const float v = row[i] + b;
                row[i] = v > 0.0f ? v : 0.0f;
              }
              break;
            case Fused::kTanh:
              for (std::int64_t i = 0; i < plane; ++i) {
                row[i] = std::tanh(row[i] + b);
              }
              break;
          }
        }
      });
}

// Batched scatter epilogue: the wide GEMM writes [Cout x B*plane] with sample
// s at columns [s*plane, (s+1)*plane); the caller wants NCHW [B, Cout, plane].
// Per element this applies the exact float sequence of fused_epilogue
// (t = v + b, then the activation formula) while de-interleaving, so each
// sample's bytes match a solo conv_forward on the same input.
void scatter_epilogue(const float* wide, std::int64_t batch, std::int64_t cout,
                      std::int64_t plane, const float* bias, Fused fused,
                      float slope, float* y) {
  util::ThreadPool::global().parallel_for(
      batch * cout, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t sc = begin; sc < end; ++sc) {
          const std::int64_t s = sc / cout, c = sc % cout;
          const float* row = wide + c * batch * plane + s * plane;
          float* dst = y + (s * cout + c) * plane;
          const float b = bias != nullptr ? bias[c] : 0.0f;
          switch (fused) {
            case Fused::kNone:
              if (bias == nullptr) {
                for (std::int64_t i = 0; i < plane; ++i) dst[i] = row[i];
              } else {
                for (std::int64_t i = 0; i < plane; ++i) dst[i] = row[i] + b;
              }
              break;
            case Fused::kLeakyReLU:
              for (std::int64_t i = 0; i < plane; ++i) {
                const float v = row[i] + b;
                dst[i] = v >= 0.0f ? v : slope * v;
              }
              break;
            case Fused::kReLU:
              for (std::int64_t i = 0; i < plane; ++i) {
                const float v = row[i] + b;
                dst[i] = v > 0.0f ? v : 0.0f;
              }
              break;
            case Fused::kTanh:
              for (std::int64_t i = 0; i < plane; ++i) {
                dst[i] = std::tanh(row[i] + b);
              }
              break;
          }
        }
      });
}

}  // namespace

PlanContext::~PlanContext() = default;
KernelBackend::~KernelBackend() = default;

bool KernelBackend::needs_calibration(const PlanContext&) const { return false; }
void KernelBackend::set_input_ranges(PlanContext&,
                                     const std::vector<float>&) const {}

void BlockedF32Backend::gemm(const float* a, const float* b, float* c,
                             std::int64_t m, std::int64_t k,
                             std::int64_t n) const {
  parpde::gemm(a, b, c, m, k, n);
}
void BlockedF32Backend::gemm_acc(const float* a, const float* b, float* c,
                                 std::int64_t m, std::int64_t k,
                                 std::int64_t n) const {
  parpde::gemm_acc(a, b, c, m, k, n);
}

void BlockedF32Backend::conv2d_forward_batched(const Tensor& x, const Tensor& w,
                                               const Tensor& b,
                                               std::int64_t pad, Tensor& y,
                                               nn::Conv2dWorkspace& ws) const {
  nn::conv2d_forward_batched(x, w, b, pad, y, ws);
}
void BlockedF32Backend::conv2d_backward_batched(
    const Tensor& x, const Tensor& dy, const Tensor& w, std::int64_t pad,
    Tensor& dx, Tensor& dw, Tensor& db, nn::Conv2dWorkspace& ws) const {
  nn::conv2d_backward_batched(x, dy, w, pad, dx, dw, db, ws);
}
void BlockedF32Backend::conv2d_backward_weights_batched(
    const Tensor& x, const Tensor& dy, std::int64_t pad, Tensor& dw, Tensor& db,
    nn::Conv2dWorkspace& ws) const {
  nn::conv2d_backward_weights_batched(x, dy, pad, dw, db, ws);
}
void BlockedF32Backend::conv2d_forward(const Tensor& x, const Tensor& w,
                                       const Tensor& b, std::int64_t pad,
                                       Tensor& y,
                                       util::AlignedVector<float>& col) const {
  nn::conv2d_forward(x, w, b, pad, y, col);
}
void BlockedF32Backend::conv2d_backward_data(
    const Tensor& dy, const Tensor& w, std::int64_t pad, Tensor& dx,
    util::AlignedVector<float>& col) const {
  nn::conv2d_backward_data(dy, w, pad, dx, col);
}
void BlockedF32Backend::conv2d_backward_weights(
    const Tensor& x, const Tensor& dy, std::int64_t pad, Tensor& dw, Tensor& db,
    util::AlignedVector<float>& col) const {
  nn::conv2d_backward_weights(x, dy, pad, dw, db, col);
}

void BlockedF32Backend::conv_transpose2d_forward(
    const float* x, const float* w, const float* bias, std::int64_t n,
    std::int64_t cin, std::int64_t cout, std::int64_t h, std::int64_t width,
    std::int64_t kernel, float* y) const {
  // Direct scatter loop nest (moved verbatim from nn::ConvTranspose2d): the
  // deconv head is tiny compared with the conv stack, so a GEMM lowering
  // (a column matrix scattered back into the output) has never been worth
  // its memory traffic here.
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

void BlockedF32Backend::leaky_relu(const float* x, float* y, std::int64_t n,
                                   float slope) const {
  util::ThreadPool::global().parallel_for(
      n, kElementwiseGrain, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          const float v = x[i];
          y[i] = v >= 0.0f ? v : slope * v;
        }
      });
}
void BlockedF32Backend::relu(const float* x, float* y, std::int64_t n) const {
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}
void BlockedF32Backend::tanh(const float* x, float* y, std::int64_t n) const {
  for (std::int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

std::unique_ptr<PlanContext> BlockedF32Backend::make_plan_context(
    const std::vector<ConvLayerDesc>& layers, std::int64_t max_h,
    std::int64_t max_w, std::int64_t max_batch) const {
  return std::make_unique<F32PlanContext>(layers, max_h, max_w, max_batch);
}

void BlockedF32Backend::conv_forward(PlanContext& ctx, int layer,
                                     const float* x, std::int64_t h,
                                     std::int64_t w, float* y) const {
  auto& c = static_cast<F32PlanContext&>(ctx);
  const ConvLayerDesc& l = c.layer(layer);
  const ConvGeometry g{l.in_channels, h, w, l.kernel, l.pad};
  const std::int64_t plane = g.out_height() * g.out_width();
  if (plane <= 0) {
    throw std::invalid_argument("conv_forward: input below kernel size");
  }
  static telemetry::Counter& flops =
      telemetry::counter("backend.fp32.gemm_flops");
  flops.add(static_cast<std::uint64_t>(2 * l.out_channels * g.col_rows() *
                                       plane));
  telemetry::Span span("conv.fp32", "backend");
  float* col = c.col(g.col_rows() * g.col_cols());
  im2col(x, g, col);
  // y [Cout x plane] = W [Cout x Cin*k*k] * col — the same lowering
  // Conv2d::forward uses, so every output element sees the identical
  // k-reduction order as the module graph.
  parpde::gemm(l.weight, col, y, l.out_channels, g.col_rows(), plane);
  fused_epilogue(y, l.out_channels, plane, l.bias, l.fused, l.slope);
}

void BlockedF32Backend::conv_forward_batched(PlanContext& ctx, int layer,
                                             const float* x,
                                             std::int64_t batch, std::int64_t h,
                                             std::int64_t w, float* y) const {
  auto& c = static_cast<F32PlanContext&>(ctx);
  const ConvLayerDesc& l = c.layer(layer);
  const ConvGeometry g{l.in_channels, h, w, l.kernel, l.pad};
  const std::int64_t plane = g.out_height() * g.out_width();
  if (plane <= 0) {
    throw std::invalid_argument("conv_forward_batched: input below kernel size");
  }
  static telemetry::Counter& flops =
      telemetry::counter("backend.fp32.gemm_flops");
  flops.add(static_cast<std::uint64_t>(2 * l.out_channels * g.col_rows() *
                                       batch * plane));
  telemetry::Span span("conv.fp32.batched", "backend");
  // Column-budget chunking: the wide lowering only pays off while the col
  // slice stays cache-resident between im2col and the GEMM that consumes it.
  // Lowering the whole batch at once on large tiles (e.g. 8 x 64x64 Table-I:
  // a 37 MB col) measures ~25-35% slower per sample than solo calls — the
  // GEMM re-reads the col from DRAM — so the batch is processed in sample
  // groups whose col fits the budget. Chunking cannot change bits: im2col is
  // per-sample, the GEMM's per-element k-reduction order is independent of
  // the matrix width, and the epilogue is elementwise.
  constexpr std::int64_t kColBudgetBytes = std::int64_t{4} << 20;
  const std::int64_t col_bytes = g.col_rows() * plane *
                                 static_cast<std::int64_t>(sizeof(float));
  const std::int64_t chunk =
      std::min(batch, std::max<std::int64_t>(1, kColBudgetBytes / col_bytes));
  float* col = c.col(g.col_rows() * chunk * plane);
  float* wide = c.out(l.out_channels * chunk * plane);
  for (std::int64_t s0 = 0; s0 < batch; s0 += chunk) {
    const std::int64_t cb = std::min(chunk, batch - s0);
    im2col_batched(x + s0 * l.in_channels * h * w, cb, g, col);
    // One GEMM of width cb*plane. The blocked kernel's per-element
    // k-reduction order depends only on the row/k indices, never on the
    // matrix width, so column s*plane+i here accumulates in the identical
    // order as column i of a solo conv_forward — the wide product is
    // bit-identical per sample.
    parpde::gemm(l.weight, col, wide, l.out_channels, g.col_rows(),
                 cb * plane);
    scatter_epilogue(wide, cb, l.out_channels, plane, l.bias, l.fused,
                     l.slope, y + s0 * l.out_channels * plane);
  }
}

const KernelBackend& blocked_f32() {
  static const BlockedF32Backend backend;
  return backend;
}

const KernelBackend* by_name(std::string_view name) {
  if (name == "fp32") return &blocked_f32();
  if (name == "int8") return &quantized_int8();
  return nullptr;
}

}  // namespace parpde::backend
