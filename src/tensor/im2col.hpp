#pragma once

// Convolution geometry (stride 1, square kernels, symmetric zero padding)
// and the im2row lowering of the weight gradient: im2row writes the
// [Hout * Wout, Cin * kh * kw] matrix whose row p is output pixel p's
// receptive field, the row-major right operand of the GEMM dW += dY * rows.
// Its transpose is the im2col column matrix, which tests/helpers.hpp keeps
// as the oracle of the direct forward.

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

// Expands one CHW sample `x` into the row matrix `rows` (preallocated,
// col_cols x col_rows, row-major): row p = y*OW + x holds the receptive field
// of output pixel (y, x) in (c, ky, kx) order. Out-of-range taps contribute
// zeros.
void im2row(const float* x, const ConvGeometry& g, float* rows);

// Whole-batch im2row: sample s occupies rows [s*col_cols, (s+1)*col_cols)
// of rows[batch*col_cols x col_rows] — a contiguous block. Samples are
// processed in parallel on the global thread pool; each writes a disjoint
// block, so the result is bit-identical at any worker count.
void im2row_batched(const float* x, std::int64_t batch, const ConvGeometry& g,
                    float* rows);

}  // namespace parpde
