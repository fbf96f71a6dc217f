#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "util/thread_pool.hpp"

namespace parpde {

namespace {

// Receptive field of an output pixel whose k x k window lies inside the
// input: Cin*k runs of k contiguous floats, copied in (c, ky) order. K is the
// kernel extent when known at compile time, 0 otherwise. A fixed-size memcpy
// is inlined; a runtime-length copy (and std::copy_n, which is a memmove) is
// a library call per k floats, and with it train_64 ran at 55-75% of the
// inlined version's throughput (docs/performance.md §2).
template <int K>
void copy_window(const float* x, const ConvGeometry& g, std::int64_t sy,
                 std::int64_t sx, float* dst) {
  const std::int64_t k = K > 0 ? K : g.kernel;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    const float* src = x + (c * g.height + sy) * g.width + sx;
    for (std::int64_t ky = 0; ky < k; ++ky, dst += k, src += g.width) {
      if constexpr (K > 0) {
        std::memcpy(dst, src, K * sizeof(float));
      } else {
        std::copy_n(src, k, dst);
      }
    }
  }
}

// The same for a window that crosses the zero padding.
void copy_border_window(const float* x, const ConvGeometry& g, std::int64_t sy,
                        std::int64_t sx, float* dst) {
  const std::int64_t k = g.kernel;
  const std::int64_t lo = std::clamp<std::int64_t>(-sx, 0, k);
  const std::int64_t hi = std::clamp<std::int64_t>(g.width - sx, lo, k);
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t ky = 0; ky < k; ++ky, dst += k) {
      const std::int64_t y = sy + ky;
      if (y < 0 || y >= g.height) {
        std::fill_n(dst, k, 0.0f);
        continue;
      }
      const float* src = x + (c * g.height + y) * g.width;
      std::fill_n(dst, lo, 0.0f);
      for (std::int64_t kx = lo; kx < hi; ++kx) dst[kx] = src[sx + kx];
      std::fill_n(dst + hi, k - hi, 0.0f);
    }
  }
}

}  // namespace

void im2row(const float* x, const ConvGeometry& g, float* rows) {
  const std::int64_t oh = g.out_height();
  const std::int64_t ow = g.out_width();
  const std::int64_t k = g.kernel;
  const std::int64_t r = g.col_rows();
  // Pixel-major: each output row of `rows` is written once, front to back.
  for (std::int64_t y = 0; y < oh; ++y) {
    const std::int64_t sy = y - g.pad;
    const bool rows_inside = sy >= 0 && sy + k <= g.height;
    for (std::int64_t xo = 0; xo < ow; ++xo) {
      const std::int64_t sx = xo - g.pad;
      float* dst = rows + (y * ow + xo) * r;
      if (!rows_inside || sx < 0 || sx + k > g.width) {
        copy_border_window(x, g, sy, sx, dst);
      } else if (k == 5) {  // every network config's kernel
        copy_window<5>(x, g, sy, sx, dst);
      } else {
        copy_window<0>(x, g, sy, sx, dst);
      }
    }
  }
}

void im2row_batched(const float* x, std::int64_t batch, const ConvGeometry& g,
                    float* rows) {
  const std::int64_t in_stride = g.in_channels * g.height * g.width;
  const std::int64_t block = g.col_cols() * g.col_rows();
  util::ThreadPool::global().parallel_for(
      batch, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t s = begin; s < end; ++s) {
          im2row(x + s * in_stride, g, rows + s * block);
        }
      });
}

}  // namespace parpde
