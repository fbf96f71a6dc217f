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

// Budget for one sample group's im2row buffer in the weight gradient. A
// group's rows must survive in L2/LLC from the lowering that writes them to
// the GEMM that reads them; whole-batch rows (12-33 MB per Table-I layer at
// batch 16 on 32x32 tiles) stream through DRAM instead, and concurrent ranks
// then contend for the shared LLC.
constexpr std::int64_t kColBudgetBytes = std::int64_t{1} << 20;

// Workspace buffers only grow: a shared workspace (the inference plan's,
// used by every layer in turn) never pays a reallocation or a re-fill when a
// narrower layer follows a wider one.
template <typename T>
T* grow(util::AlignedVector<T>& buf, std::int64_t count) {
  if (static_cast<std::int64_t>(buf.size()) < count) {
    buf.resize(static_cast<std::size_t>(count));
  }
  return buf.data();
}

constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Output pixels per vector: adjacent pixels of one flattened plane row.
constexpr std::int64_t kLanes = 16;

typedef float vLf __attribute__((vector_size(kLanes * sizeof(float))));

// v = act(v + b) on one vector of lanes: per lane the exact float sequence
// of a bias pass followed by an activation pass, so fusing them changes
// nothing but memory traffic. Without a bias b is +0; without a bias or an
// activation v is left as it is.
[[gnu::always_inline]] inline void epilogue(vLf& v, const float* bias,
                                            FusedActivation act, float slope) {
  if (bias == nullptr && act == FusedActivation::kNone) return;
  v = v + (bias != nullptr ? *bias : 0.0f);
  switch (act) {
    case FusedActivation::kNone:
      break;
    case FusedActivation::kLeakyReLU:
      v = v >= 0.0f ? v : slope * v;
      break;
    case FusedActivation::kReLU:
      v = v > 0.0f ? v : vLf{};
      break;
    case FusedActivation::kTanh:
      for (int l = 0; l < kLanes; ++l) v[l] = std::tanh(v[l]);
      break;
  }
}

// dst [channels, rows, cols] = src [channels, h, w] moved `border` rows down
// and `border` columns right, zero everywhere else.
void pad_planes(const float* src, std::int64_t channels, std::int64_t h,
                std::int64_t w, std::int64_t border, std::int64_t rows,
                std::int64_t cols, float* dst) {
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t r = 0; r < rows; ++r) {
      float* d = dst + (c * rows + r) * cols;
      const std::int64_t y = r - border;
      if (y < 0 || y >= h) {
        std::fill_n(d, cols, 0.0f);
        continue;
      }
      std::fill_n(d, border, 0.0f);
      std::memcpy(d + border, src + (c * h + y) * w,
                  static_cast<std::size_t>(w) * sizeof(float));
      std::fill_n(d + border + w, cols - border - w, 0.0f);
    }
  }
}

// Channel blocks of `c`: full blocks of `full`, then the remainder split
// into blocks of 4, 2 and 1 (its binary digits), so every kernel instance
// runs a fixed register block.
std::int64_t channel_blocks(std::int64_t c, std::int64_t full) {
  return c / full +
         __builtin_popcountll(static_cast<unsigned long long>(c % full));
}

struct ChannelBlock {
  std::int64_t c0, cb;
};

ChannelBlock channel_block(std::int64_t b, std::int64_t c, std::int64_t full) {
  const std::int64_t whole = c / full;
  if (b < whole) return {b * full, full};
  std::int64_t c0 = whole * full;
  const std::int64_t rem = c - c0;
  for (std::int64_t size = 4;; size /= 2) {
    if ((rem & size) == 0) continue;
    if (b-- == whole) return {c0, size};
    c0 += size;
  }
}

// --- direct forward ----------------------------------------------------------
//
// y[co][oy][ox] = act(b[co] + s), s = sum over taps t = (ci, kh, kw) of
//                 w[co][t] * x[ci][oy + kh - pad][ox + kw - pad]
// evaluated in exactly the order of the lowering it replaces: the blocked
// GEMM W * im2col(x), then the epilogue. The GEMM summed an element's taps in
// ascending t, one kGemmKBlock-deep register partial at a time, each started
// from +0; the first partial became s and each later one was added to it.
// The kernel forms the same partials with the same `x += a * b` statement
// (so each clone contracts it as its GEMM does), reading x in place instead
// of a column matrix. How the GEMM grouped the batch or tiled its columns
// never entered an element's sum, so the kernel tiles as it likes.
//
// An output plane is flattened with the source's row stride: lane
// n = oy * cols + ox reads tap t at source float n + off[t], where
// off[t] = (ci * rows + kh) * cols + kw, so adjacent lanes are adjacent
// floats and a tap is one unaligned vector load. The k - 1 lanes past OW at
// the end of each row are computed and discarded.

// Output channels per register block (the remainder runs blocks of 4, 2, 1).
// Each block takes kForwardVectors vectors of lanes at once: 12 independent
// accumulation chains for a full block.
constexpr std::int64_t kForwardBlock = 6;
constexpr std::int64_t kForwardVectors = 2;
constexpr std::int64_t kForwardStep = kForwardVectors * kLanes;
// Lanes per task: sample x channel block x lane chunk is the parallel grain.
constexpr std::int64_t kForwardChunk = 32 * kForwardStep;
// Floats a source buffer must hold past its last sample: the last lane
// vectors of a plane read up to 2 * kLanes - 1 floats past the sample.
constexpr std::int64_t kForwardSlack = kForwardStep;

// The planes a sample's taps read: x itself when pad is 0, otherwise a copy
// with a `pad`-wide zero border, where a padded tap multiplies a real 0 as
// the im2col matrix's zeros did (so an Inf weight still makes a NaN there).
struct ForwardSource {
  std::int64_t rows = 0, cols = 0, plane = 0, sample = 0;
  // Trailing samples read from the staging copy rather than in place: all of
  // them when padded, otherwise those whose last vectors would run past x.
  std::int64_t staged = 0;

  ForwardSource(const ConvGeometry& g, std::int64_t n)
      : rows(g.height + 2 * g.pad),
        cols(g.width + 2 * g.pad),
        plane(rows * cols),
        sample(g.in_channels * plane) {
    const std::int64_t slack_samples =
        ceil_div(kForwardSlack, std::max<std::int64_t>(sample, 1));
    staged = g.pad > 0 ? n : std::min(n, slack_samples);
  }

  [[nodiscard]] std::int64_t staging_floats() const {
    return staged * sample + kForwardSlack;
  }
};

struct ForwardArgs {
  const float* x;          // source sample [Cin, rows, cols]
  const float* w;          // this block's packed weights [taps][cb]
  const std::int64_t* off;  // source offset of each tap
  float* y;                // y plane of the block's first channel
  const float* bias;       // bias of the block's first channel, or null
  FusedActivation act;
  float slope;
  std::int64_t taps, cols, ow, plane;
  std::int64_t begin, end;  // flattened lanes [begin, end) of this task
};

const float* block_bias(const ForwardArgs& a, int i) {
  return a.bias != nullptr ? a.bias + i : nullptr;
}

// part[i][v] += sum over taps [t0, t1) of w[t][i] * x[n + off[t]], for CB
// channels of kForwardVectors lane vectors at src.
template <int CB>
[[gnu::always_inline]] inline void forward_partial(
    vLf (&part)[CB][kForwardVectors], const float* src, const ForwardArgs& a,
    std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    vLf d[kForwardVectors];
    for (int v = 0; v < kForwardVectors; ++v) {
      __builtin_memcpy(&d[v], src + a.off[t] + v * kLanes, sizeof(vLf));
    }
    const float* wt = a.w + t * CB;
    for (int i = 0; i < CB; ++i) {
      for (int v = 0; v < kForwardVectors; ++v) part[i][v] += wt[i] * d[v];
    }
  }
}

template <int CB>
[[gnu::always_inline]] inline void forward_block(const ForwardArgs& a) {
  for (std::int64_t n0 = a.begin; n0 < a.end; n0 += kForwardStep) {
    const float* src = a.x + n0;
    vLf s[CB][kForwardVectors] = {};
    forward_partial<CB>(s, src, a, 0, std::min(a.taps, kGemmKBlock));
    for (std::int64_t t0 = kGemmKBlock; t0 < a.taps; t0 += kGemmKBlock) {
      vLf part[CB][kForwardVectors] = {};
      forward_partial<CB>(part, src, a, t0, std::min(a.taps, t0 + kGemmKBlock));
      for (int i = 0; i < CB; ++i) {
        for (int v = 0; v < kForwardVectors; ++v) s[i][v] += part[i][v];
      }
    }
    for (int v = 0; v < kForwardVectors; ++v) {
      const std::int64_t n = n0 + v * kLanes;
      if (n >= a.end) break;
      const std::int64_t oy = n / a.cols, ox = n - oy * a.cols;
      for (int i = 0; i < CB; ++i) {
        epilogue(s[i][v], block_bias(a, i), a.act, a.slope);
      }
      if (ox + kLanes <= a.ow && n + kLanes <= a.end) {
        for (int i = 0; i < CB; ++i) {
          __builtin_memcpy(a.y + i * a.plane + oy * a.ow + ox, &s[i][v],
                           sizeof(vLf));
        }
        continue;
      }
      // A vector that crosses a row end: store its real pixels one by one,
      // skipping the discarded columns (x >= OW) and the lanes of the next
      // task.
      for (std::int64_t l = 0, y = oy, x = ox; l < kLanes && n + l < a.end;
           ++l, ++x) {
        if (x == a.cols) {
          x = 0;
          ++y;
        }
        if (x >= a.ow) continue;
        for (int i = 0; i < CB; ++i) {
          a.y[i * a.plane + y * a.ow + x] = s[i][v][l];
        }
      }
    }
  }
}

PARPDE_TARGET_CLONES void forward_block6(const ForwardArgs& a) {
  forward_block<6>(a);
}
PARPDE_TARGET_CLONES void forward_block4(const ForwardArgs& a) {
  forward_block<4>(a);
}
PARPDE_TARGET_CLONES void forward_block2(const ForwardArgs& a) {
  forward_block<2>(a);
}
PARPDE_TARGET_CLONES void forward_block1(const ForwardArgs& a) {
  forward_block<1>(a);
}

// Weights regrouped for the forward kernel: output-channel block
// [c0, c0+cb) occupies dst[c0*taps ...] as [tap][cb].
void pack_forward_weights(const float* w, std::int64_t cout, std::int64_t taps,
                          float* dst) {
  for (std::int64_t b = 0; b < channel_blocks(cout, kForwardBlock); ++b) {
    const ChannelBlock cb = channel_block(b, cout, kForwardBlock);
    for (std::int64_t t = 0; t < taps; ++t) {
      for (std::int64_t i = 0; i < cb.cb; ++i) {
        *dst++ = w[(cb.c0 + i) * taps + t];
      }
    }
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

// Input channels per register block. A block of CB channels also takes
// 8 / CB dx rows at once, so every block runs 8 independent accumulation
// chains — enough to hide the multiply-add latency.
constexpr std::int64_t kChannelBlock = 4;

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

// Weights regrouped for the data-gradient kernel: channel block [c0, c0+cb)
// occupies dst[c0*k*k*Cout ...] as [tap][co][cb], so each tap's Cout x cb
// broadcasts are contiguous.
void pack_weights(const float* w, std::int64_t cout, std::int64_t cin,
                  std::int64_t kk, float* dst) {
  for (std::int64_t b = 0; b < channel_blocks(cin, kChannelBlock); ++b) {
    const ChannelBlock cb = channel_block(b, cin, kChannelBlock);
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
  const std::int64_t blocks = channel_blocks(cin, kChannelBlock);
  // Counted as the W^T * dY GEMM it replaces, so per-step FLOP figures keep
  // their meaning.
  static telemetry::Counter& flops = telemetry::counter("gemm.flops");
  flops.add(static_cast<std::uint64_t>(2 * n * cout * cin * kk *
                                       g.out_height() * g.out_width()));
  util::ThreadPool::global().parallel_for(
      n * blocks, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t t = begin; t < end; ++t) {
          const std::int64_t s = t / blocks;
          const ChannelBlock cb = channel_block(t % blocks, cin, kChannelBlock);
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

void conv2d_forward_reserve(const ConvGeometry& g, std::int64_t cout,
                            std::int64_t batch, Conv2dWorkspace& ws) {
  grow(ws.staging, ForwardSource(g, batch).staging_floats());
  grow(ws.w_packed, cout * g.col_rows());
  grow(ws.tap_offsets, g.col_rows());
}

void conv2d_backward_reserve(const ConvGeometry& g, std::int64_t batch,
                             Conv2dWorkspace& ws) {
  grow(ws.staging, conv2d_batch_group(g, batch) * g.col_cols() * g.col_rows());
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
  conv2d_forward_reserve(g, cout, n, ws);
  const ForwardSource src(g, n);
  const std::int64_t taps = g.col_rows();
  const std::int64_t ow = g.out_width(), plane = g.out_height() * ow;
  const std::int64_t in_place = n - src.staged;
  const std::int64_t in_stride = g.in_channels * g.height * g.width;
  float* staged = ws.staging.data();
  auto& pool = util::ThreadPool::global();
  pool.parallel_for(src.staged, 1, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t s = begin; s < end; ++s) {
      pad_planes(x + (in_place + s) * in_stride, g.in_channels, g.height,
                 g.width, g.pad, src.rows, src.cols, staged + s * src.sample);
    }
  });
  std::fill_n(staged + src.staged * src.sample, kForwardSlack, 0.0f);
  pack_forward_weights(w, cout, taps, ws.w_packed.data());
  std::int64_t* off = ws.tap_offsets.data();
  for (std::int64_t c = 0, t = 0; c < g.in_channels; ++c) {
    for (std::int64_t kh = 0; kh < g.kernel; ++kh) {
      for (std::int64_t kw = 0; kw < g.kernel; ++kw) {
        off[t++] = (c * src.rows + kh) * src.cols + kw;
      }
    }
  }
  // Counted as the W * im2col(x) GEMM it replaces, so per-step FLOP figures
  // keep their meaning.
  static telemetry::Counter& flops = telemetry::counter("gemm.flops");
  flops.add(static_cast<std::uint64_t>(2 * cout * taps * n * plane));

  // Parallel over (sample x lane chunk x channel block), blocks innermost so
  // a thread's consecutive tasks reuse the same source window. Each output
  // element is one task's, so any worker count gives the same bits.
  const std::int64_t lanes = (g.out_height() - 1) * src.cols + ow;
  const std::int64_t chunks = ceil_div(lanes, kForwardChunk);
  const std::int64_t blocks = channel_blocks(cout, kForwardBlock);
  pool.parallel_for(
      n * chunks * blocks, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t t = begin; t < end; ++t) {
          const std::int64_t s = t / (chunks * blocks);
          const std::int64_t chunk = t / blocks % chunks;
          const ChannelBlock cb =
              channel_block(t % blocks, cout, kForwardBlock);
          const ForwardArgs a{
              s < in_place ? x + s * in_stride
                           : staged + (s - in_place) * src.sample,
              ws.w_packed.data() + cb.c0 * taps,
              off,
              y + (s * cout + cb.c0) * plane,
              bias != nullptr ? bias + cb.c0 : nullptr,
              act,
              slope,
              taps,
              src.cols,
              ow,
              plane,
              chunk * kForwardChunk,
              std::min(lanes, (chunk + 1) * kForwardChunk)};
          switch (cb.cb) {
            case 6: forward_block6(a); break;
            case 4: forward_block4(a); break;
            case 2: forward_block2(a); break;
            default: forward_block1(a); break;
          }
        }
      });
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

  conv2d_backward_reserve(g, n, ws);
  float* rows = ws.staging.data();
  const std::int64_t group = conv2d_batch_group(g, n);
  for (std::int64_t g0 = 0; g0 < n; g0 += group) {
    const std::int64_t gn = std::min(group, n - g0);
    const std::int64_t wide = gn * plane;
    const float* dy_group = dy.data() + g0 * out_stride;
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
          pad_planes(dy_group + s * out_stride, cout, oh, ow, p.border,
                     p.rows, p.cols, padded + s * cout * p.plane());
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
