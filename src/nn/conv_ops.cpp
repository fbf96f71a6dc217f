#include "nn/conv_ops.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "tensor/gemm.hpp"
#include "util/thread_pool.hpp"

namespace parpde::nn {

namespace {

// Budget for one sample group's column buffer. A group's col (and dcol in the
// backward pass) must survive in L2/LLC from the im2col that writes it to the
// GEMM that reads it; whole-batch columns (12-33 MB per Table-I layer at
// batch 16 on 32x32 tiles) stream through DRAM instead, and concurrent ranks
// then contend for the shared LLC.
constexpr std::int64_t kColBudgetBytes = std::int64_t{1} << 20;

ConvGeometry batched_geometry(const Tensor& x, const Tensor& w,
                              std::int64_t pad, const char* what) {
  if (x.ndim() != 4 || w.ndim() != 4 || w.dim(1) != x.dim(1)) {
    throw std::invalid_argument(std::string(what) +
                                ": expected x [N,Cin,H,W], w [Cout,Cin,k,k]");
  }
  if (w.dim(2) != w.dim(3)) {
    throw std::invalid_argument(std::string(what) + ": kernel must be square");
  }
  return ConvGeometry{x.dim(1), x.dim(2), x.dim(3), w.dim(2), pad};
}

ConvGeometry geometry_of(const Tensor& x, const Tensor& w, std::int64_t pad,
                         const char* what) {
  if (x.ndim() != 3 || w.ndim() != 4 || w.dim(1) != x.dim(0)) {
    throw std::invalid_argument(std::string(what) +
                                ": expected x [Cin,H,W], w [Cout,Cin,k,k]");
  }
  if (w.dim(2) != w.dim(3)) {
    throw std::invalid_argument(std::string(what) + ": kernel must be square");
  }
  return ConvGeometry{x.dim(0), x.dim(1), x.dim(2), w.dim(2), pad};
}

}  // namespace

void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    std::int64_t pad, Tensor& y, util::AlignedVector<float>& col) {
  const ConvGeometry g = geometry_of(x, w, pad, "conv2d_forward");
  const std::int64_t cout = w.dim(0);
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("conv2d_forward: input smaller than kernel");
  }
  if (y.ndim() != 3 || y.dim(0) != cout || y.dim(1) != oh || y.dim(2) != ow) {
    y = Tensor({cout, oh, ow});
  }
  col.resize(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(x.data(), g, col.data());
  gemm(w.data(), col.data(), y.data(), cout, g.col_rows(), g.col_cols());
  if (!b.empty()) {
    if (b.size() != cout) {
      throw std::invalid_argument("conv2d_forward: bias size mismatch");
    }
    for (std::int64_t c = 0; c < cout; ++c) {
      float* plane = y.data() + c * oh * ow;
      const float bias = b[c];
      for (std::int64_t i = 0; i < oh * ow; ++i) plane[i] += bias;
    }
  }
}

void conv2d_backward_data(const Tensor& dy, const Tensor& w, std::int64_t pad,
                          Tensor& dx, util::AlignedVector<float>& col) {
  if (dy.ndim() != 3 || w.ndim() != 4 || dy.dim(0) != w.dim(0)) {
    throw std::invalid_argument(
        "conv2d_backward_data: expected dy [Cout,OH,OW], w [Cout,Cin,k,k]");
  }
  if (dx.ndim() != 3 || dx.dim(0) != w.dim(1)) {
    throw std::invalid_argument("conv2d_backward_data: dx must be [Cin,H,W]");
  }
  const ConvGeometry g{w.dim(1), dx.dim(1), dx.dim(2), w.dim(2), pad};
  if (g.out_height() != dy.dim(1) || g.out_width() != dy.dim(2)) {
    throw std::invalid_argument("conv2d_backward_data: shape mismatch");
  }
  col.resize(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  gemm_at(w.data(), dy.data(), col.data(), g.col_rows(), w.dim(0), g.col_cols());
  dx.fill(0.0f);
  col2im(col.data(), g, dx.data());
}

void conv2d_backward_weights(const Tensor& x, const Tensor& dy, std::int64_t pad,
                             Tensor& dw, Tensor& db, util::AlignedVector<float>& col) {
  const ConvGeometry g = geometry_of(x, dw, pad, "conv2d_backward_weights");
  const std::int64_t cout = dw.dim(0);
  if (dy.dim(0) != cout || dy.dim(1) != g.out_height() ||
      dy.dim(2) != g.out_width()) {
    throw std::invalid_argument("conv2d_backward_weights: dy shape mismatch");
  }
  col.resize(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(x.data(), g, col.data());
  gemm_bt_acc(dy.data(), col.data(), dw.data(), cout, g.col_cols(),
              g.col_rows());
  if (!db.empty()) {
    const std::int64_t plane = g.out_height() * g.out_width();
    for (std::int64_t c = 0; c < cout; ++c) {
      const float* p = dy.data() + c * plane;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < plane; ++i) acc += p[i];
      db[c] += acc;
    }
  }
}

std::int64_t conv2d_batch_group(const ConvGeometry& g, std::int64_t batch) {
  const std::int64_t plane = g.col_cols();
  const std::int64_t per_sample_bytes =
      g.col_rows() * plane * static_cast<std::int64_t>(sizeof(float));
  if (per_sample_bytes <= 0) return 1;
  const std::int64_t fit = kColBudgetBytes / per_sample_bytes;
  if (fit >= batch) return batch;
  // Smallest sample count whose column width is a multiple of the GEMM
  // k-block, so every group but the last ends on a k-block boundary of the
  // whole-batch dW reduction (see kGemmKBlock).
  const std::int64_t align = kGemmKBlock / std::gcd(plane, kGemmKBlock);
  return std::min(batch, std::max(align, fit - fit % align));
}

void conv2d_forward_batched(const Tensor& x, const Tensor& w, const Tensor& b,
                            std::int64_t pad, Tensor& y, Conv2dWorkspace& ws) {
  const ConvGeometry g = batched_geometry(x, w, pad, "conv2d_forward_batched");
  const std::int64_t cout = w.dim(0);
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        "conv2d_forward_batched: input smaller than kernel");
  }
  if (!b.empty() && b.size() != cout) {
    throw std::invalid_argument("conv2d_forward_batched: bias size mismatch");
  }
  const std::int64_t n = x.dim(0);
  const std::int64_t plane = oh * ow;
  const std::int64_t in_stride = g.in_channels * g.height * g.width;
  const std::int64_t out_stride = cout * plane;
  if (y.ndim() != 4 || y.dim(0) != n || y.dim(1) != cout || y.dim(2) != oh ||
      y.dim(3) != ow) {
    y = Tensor({n, cout, oh, ow});
  }

  const std::int64_t group = conv2d_batch_group(g, n);
  auto& pool = util::ThreadPool::global();
  for (std::int64_t g0 = 0; g0 < n; g0 += group) {
    const std::int64_t gn = std::min(group, n - g0);
    const std::int64_t wide = gn * plane;
    ws.col.resize(static_cast<std::size_t>(g.col_rows() * wide));
    ws.out.resize(static_cast<std::size_t>(cout * wide));
    im2col_batched(x.data() + g0 * in_stride, gn, g, ws.col.data());
    // out [Cout x gn*plane] = W [Cout x Cin*k*k] * col: one wide GEMM for the
    // whole group instead of gn narrow ones. Each element's k order does not
    // depend on the matrix width, so grouping cannot change the bits.
    gemm(w.data(), ws.col.data(), ws.out.data(), cout, g.col_rows(), wide);
    // Scatter the channel-major GEMM output into NCHW order, fusing the bias
    // add. Planes are disjoint, so the parallel loop is deterministic.
    pool.parallel_for(gn * cout, 4, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t t = begin; t < end; ++t) {
        const std::int64_t s = t / cout, c = t % cout;
        const float* src = ws.out.data() + c * wide + s * plane;
        float* dst = y.data() + (g0 + s) * out_stride + c * plane;
        if (b.empty()) {
          std::memcpy(dst, src, static_cast<std::size_t>(plane) * sizeof(float));
        } else {
          const float bias = b[c];
          for (std::int64_t i = 0; i < plane; ++i) dst[i] = src[i] + bias;
        }
      }
    });
  }
}

void conv2d_backward_batched(const Tensor& x, const Tensor& dy,
                             const Tensor& w, std::int64_t pad, Tensor& dx,
                             Tensor& dw, Tensor& db, Conv2dWorkspace& ws) {
  const ConvGeometry g = batched_geometry(x, w, pad, "conv2d_backward_batched");
  const std::int64_t cout = w.dim(0);
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  const std::int64_t n = x.dim(0);
  if (dy.ndim() != 4 || dy.dim(0) != n || dy.dim(1) != cout ||
      dy.dim(2) != oh || dy.dim(3) != ow) {
    throw std::invalid_argument("conv2d_backward_batched: dy shape mismatch");
  }
  if (!dw.same_shape(w)) {
    throw std::invalid_argument("conv2d_backward_batched: dw shape mismatch");
  }
  if (!db.empty() && db.size() != cout) {
    throw std::invalid_argument("conv2d_backward_batched: db size mismatch");
  }
  const std::int64_t plane = oh * ow;
  const std::int64_t in_stride = g.in_channels * g.height * g.width;
  const std::int64_t out_stride = cout * plane;
  if (!dx.same_shape(x)) {
    dx = Tensor(x.shape());
  } else {
    dx.fill(0.0f);
  }

  auto& pool = util::ThreadPool::global();
  // db[c] += one sum over the whole batch, sample-major then pixel: the same
  // addition sequence as summing a gathered whole-batch channel row, however
  // the batch is grouped below. Channels are independent and each is summed
  // by one thread, so the result is deterministic at any worker count.
  if (!db.empty()) {
    pool.parallel_for(cout, 1, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t c = begin; c < end; ++c) {
        float acc = 0.0f;
        for (std::int64_t s = 0; s < n; ++s) {
          const float* p = dy.data() + s * out_stride + c * plane;
          for (std::int64_t i = 0; i < plane; ++i) acc += p[i];
        }
        db[c] += acc;
      }
    });
  }

  const std::int64_t group = conv2d_batch_group(g, n);
  for (std::int64_t g0 = 0; g0 < n; g0 += group) {
    const std::int64_t gn = std::min(group, n - g0);
    const std::int64_t wide = gn * plane;
    ws.col.resize(static_cast<std::size_t>(g.col_rows() * wide));
    ws.dy.resize(static_cast<std::size_t>(cout * wide));
    ws.dcol.resize(static_cast<std::size_t>(g.col_rows() * wide));
    // Gather dY from NCHW into the channel-major layout the wide GEMMs need.
    pool.parallel_for(gn * cout, 4, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t t = begin; t < end; ++t) {
        const std::int64_t s = t / cout, c = t % cout;
        std::memcpy(ws.dy.data() + c * wide + s * plane,
                    dy.data() + (g0 + s) * out_stride + c * plane,
                    static_cast<std::size_t>(plane) * sizeof(float));
      }
    });
    // dW += dY [Cout x wide] * col^T. The group's columns are a slice of the
    // whole-batch k-reduction; every group but the last is a whole number of
    // k-blocks wide (conv2d_batch_group), so the consecutive accumulating
    // calls add the same k-block partials in the same order as one call.
    im2col_batched(x.data() + g0 * in_stride, gn, g, ws.col.data());
    gemm_bt_acc(ws.dy.data(), ws.col.data(), dw.data(), cout, wide,
                g.col_rows());
    // dcol [Cin*k*k x wide] = W^T * dY, scattered back per sample. Grouping
    // splits only the width, never this GEMM's k (= Cout).
    gemm_at(w.data(), ws.dy.data(), ws.dcol.data(), g.col_rows(), cout, wide);
    col2im_batched(ws.dcol.data(), gn, g, dx.data() + g0 * in_stride);
  }
}

}  // namespace parpde::nn
