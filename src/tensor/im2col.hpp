#pragma once

// im2col / im2row lowering for 2-d convolution (stride 1, square kernels,
// symmetric zero padding). The column matrix layout is
//   [Cin * kh * kw,  Hout * Wout]
// so that conv forward is a single GEMM with the [Cout, Cin*kh*kw] weight
// matrix. im2row writes its transpose, [Hout * Wout, Cin * kh * kw], which is
// the row-major right operand of the weight-gradient GEMM dW += dY * rows.

#include <cstdint>

#include "tensor/tensor.hpp"

namespace parpde {

struct ConvGeometry {
  std::int64_t in_channels = 0;
  std::int64_t height = 0;      // input height (unpadded)
  std::int64_t width = 0;       // input width (unpadded)
  std::int64_t kernel = 0;      // square kernel extent
  std::int64_t pad = 0;         // symmetric zero padding

  [[nodiscard]] std::int64_t out_height() const { return height + 2 * pad - kernel + 1; }
  [[nodiscard]] std::int64_t out_width() const { return width + 2 * pad - kernel + 1; }
  [[nodiscard]] std::int64_t col_rows() const { return in_channels * kernel * kernel; }
  [[nodiscard]] std::int64_t col_cols() const { return out_height() * out_width(); }
};

// Expands one CHW sample `x` into the column matrix `col` (preallocated,
// col_rows x col_cols, row-major). Out-of-range taps contribute zeros.
// `ld` is the row stride (leading dimension) of `col`; the default -1 means
// a dense matrix (ld == col_cols). A larger ld lets several samples share one
// wide [col_rows x N*col_cols] matrix, each writing its own column window.
void im2col(const float* x, const ConvGeometry& g, float* col,
            std::int64_t ld = -1);

// Expands one CHW sample `x` into the row matrix `rows` (preallocated,
// col_cols x col_rows, row-major): row p = y*OW + x holds the receptive field
// of output pixel (y, x) in (c, ky, kx) order, i.e. rows[p][r] == col[r][p].
// Out-of-range taps contribute zeros.
void im2row(const float* x, const ConvGeometry& g, float* rows);

// Whole-batch lowering: expands `batch` NCHW samples at `x` into one wide
// column matrix col[col_rows x batch*col_cols], sample s occupying columns
// [s*col_cols, (s+1)*col_cols). Samples are processed in parallel on the
// global thread pool; each writes a disjoint column window, so the result is
// bit-identical at any worker count.
void im2col_batched(const float* x, std::int64_t batch, const ConvGeometry& g,
                    float* col);

// Whole-batch im2row: sample s occupies rows [s*col_cols, (s+1)*col_cols)
// of rows[batch*col_cols x col_rows] — a contiguous block, so the batch is
// the transpose of im2col_batched's wide column matrix. Parallel over
// samples like im2col_batched (disjoint outputs, bit-identical at any worker
// count).
void im2row_batched(const float* x, std::int64_t batch, const ConvGeometry& g,
                    float* rows);

}  // namespace parpde
