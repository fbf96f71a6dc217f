#include "nn/conv_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "tensor/gemm.hpp"
#include "util/target_clones.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace parpde::nn {

namespace {

// Budget for one sample group's column buffer. A group's col (its im2row
// rows in the backward pass) must survive in L2/LLC from the lowering that
// writes it to the GEMM that reads it; whole-batch columns (12-33 MB per
// Table-I layer at batch 16 on 32x32 tiles) stream through DRAM instead, and
// concurrent ranks then contend for the shared LLC.
constexpr std::int64_t kColBudgetBytes = std::int64_t{1} << 20;

// Workspace buffers only grow: a shared workspace (the inference plan's,
// used by every layer in turn) never pays a reallocation or a re-fill when a
// narrower layer follows a wider one.
float* grow(util::AlignedVector<float>& buf, std::int64_t floats) {
  if (static_cast<std::int64_t>(buf.size()) < floats) {
    buf.resize(static_cast<std::size_t>(floats));
  }
  return buf.data();
}

// dst = act(src + b) over one channel plane (src == dst allowed): the exact
// per-element float sequence of a bias pass followed by an activation pass,
// so fusing them changes nothing but memory traffic. Without a bias b is +0;
// without a bias or an activation dst is src.
void epilogue(const float* src, float* dst, std::int64_t len,
              const float* bias, FusedActivation act, float slope) {
  const float b = bias != nullptr ? *bias : 0.0f;
  switch (act) {
    case FusedActivation::kNone:
      if (bias != nullptr) {
        for (std::int64_t i = 0; i < len; ++i) dst[i] = src[i] + b;
      } else if (src != dst) {
        std::memcpy(dst, src, static_cast<std::size_t>(len) * sizeof(float));
      }
      break;
    case FusedActivation::kLeakyReLU:
      for (std::int64_t i = 0; i < len; ++i) {
        const float v = src[i] + b;
        dst[i] = v >= 0.0f ? v : slope * v;
      }
      break;
    case FusedActivation::kReLU:
      for (std::int64_t i = 0; i < len; ++i) {
        const float v = src[i] + b;
        dst[i] = v > 0.0f ? v : 0.0f;
      }
      break;
    case FusedActivation::kTanh:
      for (std::int64_t i = 0; i < len; ++i) dst[i] = std::tanh(src[i] + b);
      break;
  }
}

// --- direct data gradient ----------------------------------------------------
//
// dx[c][sy][sx] = sum over taps (kh, kw) of
//                 s = sum over co of w[co][c][kh][kw] * dy[co][sy-kh+pad][sx-kw+pad]
// evaluated in exactly the order of the lowering it replaces: a column matrix
// C = W^T * dY from the blocked GEMM, scattered back onto the input grid.
// Each C[(c, kh, kw)][pixel] was the GEMM's Cout reduction (the +0-started
// register partial of the first kGemmKBlock channels, then the partial of
// each further block added in ascending order), and the scatter added the
// rows of channel c into a +0-started dx pixel in ascending (kh, kw) order.
// The kernel forms the same s per tap and adds it the same way, but reads dY
// straight from a zero-bordered copy instead of writing and re-reading C.
//
// A tap that falls outside dY reads zeros, so its s is +0, and adding +0
// cannot change a sum that started at +0 (such a sum is never -0). The
// partials use the same `x += a * b` statement as the GEMM micro-kernel,
// which each clone compiles to the same instruction (a fused multiply-add
// where the ISA has one), so every clone reproduces its own GEMM's bits.

// Output pixels per vector: adjacent sx of one dx row.
constexpr std::int64_t kLanes = 16;
// Input channels per register block. A block of CB channels also takes
// 8 / CB dx rows at once, so every block runs 8 independent accumulation
// chains — enough to hide the multiply-add latency.
constexpr std::int64_t kChannelBlock = 4;

typedef float vLf __attribute__((vector_size(kLanes * sizeof(float))));

// One sample's dY plane with a zero border: row r, column j hold
// dy[r - border][j - border]. The border and the extra right columns cover
// every tap of every dx pixel, including the lanes past W of a ragged last
// vector, so the kernel needs no bounds checks.
struct PaddedDy {
  std::int64_t border = 0, rows = 0, cols = 0;

  explicit PaddedDy(const ConvGeometry& g)
      : border(std::max<std::int64_t>(0, g.kernel - 1 - g.pad)),
        rows(border + std::max(g.out_height(), g.height + g.pad)),
        cols(border + std::max(g.out_width(),
                               (g.width + kLanes - 1) / kLanes * kLanes +
                                   g.pad)) {}

  [[nodiscard]] std::int64_t plane() const { return rows * cols; }
};

// dst [Cout, rows, cols] = dy [Cout, OH, OW] with its zero border.
void pad_dy(const float* dy, std::int64_t cout, const ConvGeometry& g,
            const PaddedDy& p, float* dst) {
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  for (std::int64_t co = 0; co < cout; ++co) {
    for (std::int64_t r = 0; r < p.rows; ++r) {
      float* d = dst + (co * p.rows + r) * p.cols;
      const std::int64_t y = r - p.border;
      if (y < 0 || y >= oh) {
        std::fill_n(d, p.cols, 0.0f);
        continue;
      }
      std::fill_n(d, p.border, 0.0f);
      std::memcpy(d + p.border, dy + (co * oh + y) * ow,
                  static_cast<std::size_t>(ow) * sizeof(float));
      std::fill_n(d + p.border + ow, p.cols - p.border - ow, 0.0f);
    }
  }
}

// Channel blocks of `cin`: full blocks of 4, then a remainder of 3 splits
// into 2 + 1 so every kernel instance runs a fixed register block.
std::int64_t channel_blocks(std::int64_t cin) {
  const std::int64_t rem = cin % kChannelBlock;
  return cin / kChannelBlock + (rem >= 2) + (rem % 2);
}

struct ChannelBlock {
  std::int64_t c0, cb;
};

ChannelBlock channel_block(std::int64_t b, std::int64_t cin) {
  const std::int64_t full = cin / kChannelBlock;
  if (b < full) return {b * kChannelBlock, kChannelBlock};
  const std::int64_t c0 = full * kChannelBlock;
  if (b == full && cin - c0 >= 2) return {c0, 2};
  return {cin - 1, 1};
}

// Weights regrouped for the kernel: channel block [c0, c0+cb) occupies
// dst[c0*k*k*Cout ...] as [tap][co][cb], so each tap's Cout x cb broadcasts
// are contiguous.
void pack_weights(const float* w, std::int64_t cout, std::int64_t cin,
                  std::int64_t kk, float* dst) {
  for (std::int64_t b = 0; b < channel_blocks(cin); ++b) {
    const ChannelBlock cb = channel_block(b, cin);
    for (std::int64_t tap = 0; tap < kk; ++tap) {
      for (std::int64_t co = 0; co < cout; ++co) {
        for (std::int64_t i = 0; i < cb.cb; ++i) {
          *dst++ = w[(co * cin + cb.c0 + i) * kk + tap];
        }
      }
    }
  }
}

struct DataGradArgs {
  const float* dy;  // padded sample [Cout, rows, cols]
  const float* w;   // this block's packed weights [k*k][Cout][cb]
  float* dx;        // dx plane of the block's first channel
  std::int64_t cout, kernel, height, width;
  std::int64_t dy_cols, dy_plane, dy_offset;  // dy_offset = pad + border
};

// part[r][i] += sum over co in [co0, co1) of w * dy, for RB rows x CB
// channels of kLanes adjacent sx.
template <int CB, int RB>
[[gnu::always_inline]] inline void tap_partial(vLf (&part)[RB][CB],
                                               const float* src,
                                               const float* wt,
                                               std::int64_t co0,
                                               std::int64_t co1,
                                               const DataGradArgs& a) {
  for (std::int64_t co = co0; co < co1; ++co) {
    const float* wc = wt + co * CB;
    for (int r = 0; r < RB; ++r) {
      vLf d;
      __builtin_memcpy(&d, src + co * a.dy_plane + r * a.dy_cols, sizeof(d));
      for (int i = 0; i < CB; ++i) part[r][i] += wc[i] * d;
    }
  }
}

// RB dx rows of CB channels, kLanes adjacent sx per vector: CB * RB
// independent accumulation chains, enough to cover the multiply-add latency.
template <int CB, int RB>
[[gnu::always_inline]] inline void data_grad_rows(const DataGradArgs& a,
                                                  std::int64_t sy0) {
  const std::int64_t k = a.kernel;
  const std::int64_t wplane = a.height * a.width;
  for (std::int64_t sx0 = 0; sx0 < a.width; sx0 += kLanes) {
    vLf acc[RB][CB] = {};
    const float* wt = a.w;
    for (std::int64_t kh = 0; kh < k; ++kh) {
      const float* row =
          a.dy + (sy0 - kh + a.dy_offset) * a.dy_cols + sx0 + a.dy_offset;
      for (std::int64_t kw = 0; kw < k; ++kw, wt += a.cout * CB) {
        // s is the first Cout block's partial; each further block's partial
        // starts from +0 and is added to s in ascending order.
        vLf s[RB][CB] = {};
        tap_partial<CB, RB>(s, row - kw, wt, 0, std::min(a.cout, kGemmKBlock),
                            a);
        for (std::int64_t co0 = kGemmKBlock; co0 < a.cout; co0 += kGemmKBlock) {
          vLf part[RB][CB] = {};
          tap_partial<CB, RB>(part, row - kw, wt, co0,
                              std::min(a.cout, co0 + kGemmKBlock), a);
          for (int r = 0; r < RB; ++r) {
            for (int i = 0; i < CB; ++i) s[r][i] += part[r][i];
          }
        }
        for (int r = 0; r < RB; ++r) {
          for (int i = 0; i < CB; ++i) acc[r][i] += s[r][i];
        }
      }
    }
    const std::int64_t lanes = std::min(kLanes, a.width - sx0);
    for (int r = 0; r < RB; ++r) {
      for (int i = 0; i < CB; ++i) {
        __builtin_memcpy(a.dx + i * wplane + (sy0 + r) * a.width + sx0,
                         &acc[r][i],
                         static_cast<std::size_t>(lanes) * sizeof(float));
      }
    }
  }
}

template <int CB>
[[gnu::always_inline]] inline void data_grad_block(const DataGradArgs& a) {
  constexpr int RB = 8 / CB;
  std::int64_t sy = 0;
  for (; sy + RB <= a.height; sy += RB) data_grad_rows<CB, RB>(a, sy);
  for (; sy < a.height; ++sy) data_grad_rows<CB, 1>(a, sy);
}

PARPDE_TARGET_CLONES void data_grad_block4(const DataGradArgs& a) {
  data_grad_block<4>(a);
}
PARPDE_TARGET_CLONES void data_grad_block2(const DataGradArgs& a) {
  data_grad_block<2>(a);
}
PARPDE_TARGET_CLONES void data_grad_block1(const DataGradArgs& a) {
  data_grad_block<1>(a);
}

// dx [n, Cin, H, W] (overwritten) from `n` padded dY samples and the packed
// weights. Parallel over (sample x channel block): the outputs are disjoint
// and each pixel's sum runs on one thread, so any worker count gives the
// same bits.
void conv2d_data_grad(const float* dy_pad, const float* w_packed,
                      std::int64_t n, std::int64_t cout, const ConvGeometry& g,
                      const PaddedDy& p, float* dx) {
  const std::int64_t cin = g.in_channels;
  const std::int64_t plane = g.height * g.width;
  const std::int64_t kk = g.kernel * g.kernel;
  const std::int64_t blocks = channel_blocks(cin);
  // Counted as the W^T * dY GEMM it replaces, so per-step FLOP figures keep
  // their meaning.
  static telemetry::Counter& flops = telemetry::counter("gemm.flops");
  flops.add(static_cast<std::uint64_t>(2 * n * cout * cin * kk *
                                       g.out_height() * g.out_width()));
  util::ThreadPool::global().parallel_for(
      n * blocks, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t t = begin; t < end; ++t) {
          const std::int64_t s = t / blocks;
          const ChannelBlock cb = channel_block(t % blocks, cin);
          const DataGradArgs a{dy_pad + s * cout * p.plane(),
                               w_packed + cb.c0 * kk * cout,
                               dx + (s * cin + cb.c0) * plane,
                               cout, g.kernel, g.height, g.width,
                               p.cols, p.plane(), g.pad + p.border};
          if (cb.cb == 4) {
            data_grad_block4(a);
          } else if (cb.cb == 2) {
            data_grad_block2(a);
          } else {
            data_grad_block1(a);
          }
        }
      });
}

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

}  // namespace

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
  if (!b.empty() && b.size() != cout) {
    throw std::invalid_argument("conv2d_forward_batched: bias size mismatch");
  }
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  if (oh > 0 && ow > 0 &&
      (y.ndim() != 4 || y.dim(0) != n || y.dim(1) != cout || y.dim(2) != oh ||
       y.dim(3) != ow)) {
    y = Tensor({n, cout, oh, ow});
  }
  conv2d_forward_batched(x.data(), n, g, w.data(), cout,
                         b.empty() ? nullptr : b.data(), FusedActivation::kNone,
                         0.0f, y.data(), ws);
}

void conv2d_forward_batched(const float* x, std::int64_t n,
                            const ConvGeometry& g, const float* w,
                            std::int64_t cout, const float* bias,
                            FusedActivation act, float slope, float* y,
                            Conv2dWorkspace& ws) {
  if (g.out_height() <= 0 || g.out_width() <= 0) {
    throw std::invalid_argument(
        "conv2d_forward_batched: input smaller than kernel");
  }
  const std::int64_t plane = g.out_height() * g.out_width();
  const std::int64_t in_stride = g.in_channels * g.height * g.width;
  const std::int64_t out_stride = cout * plane;
  const std::int64_t group = conv2d_batch_group(g, n);
  float* col = grow(ws.col, g.col_rows() * group * plane);
  float* out = group > 1 ? grow(ws.out, cout * group * plane) : nullptr;
  for (std::int64_t g0 = 0; g0 < n; g0 += group) {
    const std::int64_t gn = std::min(group, n - g0);
    const std::int64_t wide = gn * plane;
    float* y_group = y + g0 * out_stride;
    im2col_batched(x + g0 * in_stride, gn, g, col);
    // [Cout x gn*plane] = W [Cout x Cin*k*k] * col: one wide GEMM for the
    // whole group instead of gn narrow ones. Each element's k order does not
    // depend on the matrix width, so grouping cannot change the bits. One
    // sample's channel-major product is already NCHW, so it lands in y.
    float* product = gn == 1 ? y_group : out;
    gemm(w, col, product, cout, g.col_rows(), wide);
    // Bias + activation epilogue, scattering a group's channel-major product
    // into NCHW order on the way. Planes are disjoint, so the parallel loop
    // is deterministic.
    util::ThreadPool::global().parallel_for(
        gn * cout, 1, [&](std::int64_t begin, std::int64_t end) {
          for (std::int64_t t = begin; t < end; ++t) {
            const std::int64_t s = t / cout, c = t % cout;
            epilogue(product + c * wide + s * plane,
                     y_group + s * out_stride + c * plane, plane,
                     bias != nullptr ? bias + c : nullptr, act, slope);
          }
        });
  }
}

namespace {

// The batched backward: dW/db always, dx when `dx` is non-null.
void backward_batched(const Tensor& x, const Tensor& dy, const Tensor& w,
                      std::int64_t pad, Tensor* dx, Tensor& dw, Tensor& db,
                      Conv2dWorkspace& ws, const char* what) {
  const ConvGeometry g = batched_geometry(x, w, pad, what);
  const std::int64_t cout = w.dim(0);
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  const std::int64_t n = x.dim(0);
  if (dy.ndim() != 4 || dy.dim(0) != n || dy.dim(1) != cout ||
      dy.dim(2) != oh || dy.dim(3) != ow) {
    throw std::invalid_argument(std::string(what) + ": dy shape mismatch");
  }
  if (!dw.same_shape(w)) {
    throw std::invalid_argument(std::string(what) + ": dw shape mismatch");
  }
  if (!db.empty() && db.size() != cout) {
    throw std::invalid_argument(std::string(what) + ": db size mismatch");
  }
  const std::int64_t plane = oh * ow;
  const std::int64_t in_stride = g.in_channels * g.height * g.width;
  const std::int64_t out_stride = cout * plane;
  const PaddedDy p(g);
  if (dx != nullptr) {
    if (!dx->same_shape(x)) *dx = Tensor(x.shape());
    pack_weights(w.data(), cout, g.in_channels, g.kernel * g.kernel,
                 grow(ws.w_packed, w.size()));
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
          const float* q = dy.data() + s * out_stride + c * plane;
          for (std::int64_t i = 0; i < plane; ++i) acc += q[i];
        }
        db[c] += acc;
      }
    });
  }

  const std::int64_t group = conv2d_batch_group(g, n);
  for (std::int64_t g0 = 0; g0 < n; g0 += group) {
    const std::int64_t gn = std::min(group, n - g0);
    const std::int64_t wide = gn * plane;
    const float* dy_group = dy.data() + g0 * out_stride;
    float* rows = grow(ws.col, wide * g.col_rows());
    // dW [Cout x Cin*k*k] += dY [Cout x wide] * rows [wide x Cin*k*k]. The
    // channel-major dY is the group's sample itself when it holds one;
    // otherwise gather it from NCHW.
    const float* dy_wide = dy_group;
    if (gn > 1) {
      float* gathered = grow(ws.dy, cout * wide);
      pool.parallel_for(gn * cout, 4, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t t = begin; t < end; ++t) {
          const std::int64_t s = t / cout, c = t % cout;
          std::memcpy(gathered + c * wide + s * plane,
                      dy_group + s * out_stride + c * plane,
                      static_cast<std::size_t>(plane) * sizeof(float));
        }
      });
      dy_wide = gathered;
    }
    // The rows are the transpose of the group's im2col matrix, so this is
    // dY * col^T with B read in place instead of through a transposed pack:
    // the micro-kernel sees the same operands in the same k-blocks. The
    // group's rows are a slice of the whole-batch k-reduction; every group
    // but the last is a whole number of k-blocks deep (conv2d_batch_group),
    // so the consecutive accumulating calls add the same k-block partials in
    // the same order as one call.
    im2row_batched(x.data() + g0 * in_stride, gn, g, rows);
    gemm_acc(dy_wide, rows, dw.data(), cout, wide, g.col_rows());
    if (dx != nullptr) {
      float* padded = grow(ws.dy_padded, gn * cout * p.plane());
      pool.parallel_for(gn, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t s = begin; s < end; ++s) {
          pad_dy(dy_group + s * out_stride, cout, g, p,
                 padded + s * cout * p.plane());
        }
      });
      conv2d_data_grad(padded, ws.w_packed.data(), gn, cout, g, p,
                       dx->data() + g0 * in_stride);
    }
  }
}

}  // namespace

void conv2d_backward_batched(const Tensor& x, const Tensor& dy,
                             const Tensor& w, std::int64_t pad, Tensor& dx,
                             Tensor& dw, Tensor& db, Conv2dWorkspace& ws) {
  backward_batched(x, dy, w, pad, &dx, dw, db, ws, "conv2d_backward_batched");
}

void conv2d_backward_weights_batched(const Tensor& x, const Tensor& dy,
                                     std::int64_t pad, Tensor& dw, Tensor& db,
                                     Conv2dWorkspace& ws) {
  backward_batched(x, dy, dw, pad, nullptr, dw, db, ws,
                   "conv2d_backward_weights_batched");
}

}  // namespace parpde::nn
