#pragma once

// Convolution primitives (stride 1, square kernel, symmetric zero padding)
// built on im2col + GEMM.
//
// The batched entry points lower an [N, C, H, W] batch in sample groups: each
// group of G samples becomes one wide [Cin*k*k x G*OH*OW] column matrix and
// one GEMM per operand, instead of G small ones, so the GEMM gets enough
// columns to block and thread well. G is chosen so a group's column matrix
// stays cache-resident between the im2col that writes it and the GEMM that
// reads it (conv2d_batch_group); results are bit-identical to lowering the
// whole batch at once. The per-layer Conv2dWorkspace keeps every buffer alive
// across batches (no steady-state allocation). The single-sample versions
// remain for recurrent cells (ConvLSTM) whose backward-through-time pass
// re-evaluates per timestep.

#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"
#include "util/aligned.hpp"

namespace parpde::nn {

// Persistent per-layer scratch for the batched convolution path. Every buffer
// holds one sample group (G = conv2d_batch_group samples), not the batch.
// Buffers only grow; a layer reuses them for every batch of the same
// geometry. All buffers are 64-byte aligned so the GEMM micro-kernels get
// clean vector loads.
struct Conv2dWorkspace {
  util::AlignedVector<float> col;   // [Cin*k*k x G*OH*OW] group im2col columns
  util::AlignedVector<float> out;   // [Cout    x G*OH*OW] channel-major GEMM output
  util::AlignedVector<float> dy;    // [Cout    x G*OH*OW] channel-major gathered dY
  util::AlignedVector<float> dcol;  // [Cin*k*k x G*OH*OW] backward-data columns
};

// Number of samples lowered per wide GEMM: the whole batch when its column
// matrix fits a fixed 1 MiB budget, otherwise the largest group that does,
// rounded down to (but never below) the alignment
// a = kGemmKBlock / gcd(OH*OW, kGemmKBlock). The alignment makes each group's
// column width a whole number of GEMM k-blocks, which keeps the grouped dW
// reduction bit-identical to the whole-batch one; when one sample already
// overflows the budget, a group holds a samples (at most the batch). Depends
// only on the problem geometry (never on thread count), so training results
// are reproducible across machines.
std::int64_t conv2d_batch_group(const ConvGeometry& g, std::int64_t batch);

// y [N, Cout, OH, OW] = w (*) x + b for x [N, Cin, H, W], w [Cout, Cin, k, k]
// and b [Cout] (b may be empty to skip the bias).
void conv2d_forward_batched(const Tensor& x, const Tensor& w, const Tensor& b,
                            std::int64_t pad, Tensor& y, Conv2dWorkspace& ws);

// Full backward: dx = w^T (*) dy (overwritten), dw += dy (*) x and
// db += sum(dy) (accumulating, like the single-sample versions).
void conv2d_backward_batched(const Tensor& x, const Tensor& dy,
                             const Tensor& w, std::int64_t pad, Tensor& dx,
                             Tensor& dw, Tensor& db, Conv2dWorkspace& ws);

// y [Cout, OH, OW] = w (*) x + b, where x is [Cin, H, W], w is
// [Cout, Cin, k, k] and b is [Cout] (b may be empty to skip the bias).
// `col` is caller-provided scratch resized as needed.
void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    std::int64_t pad, Tensor& y, util::AlignedVector<float>& col);

// dx = w^T (*) dy (backward-data). dx is overwritten, shaped like x.
void conv2d_backward_data(const Tensor& dy, const Tensor& w, std::int64_t pad,
                          Tensor& dx, util::AlignedVector<float>& col);

// dw += dy (*) x, db += sum(dy) (backward-weights, accumulating).
void conv2d_backward_weights(const Tensor& x, const Tensor& dy, std::int64_t pad,
                             Tensor& dw, Tensor& db, util::AlignedVector<float>& col);

}  // namespace parpde::nn
