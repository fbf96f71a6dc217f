#pragma once

// Convolution primitives (stride 1, square kernel, symmetric zero padding):
// the only fp32 convolution code. Training (Conv2d), ConvLSTM and the fp32
// inference plan (ForwardPlan through backend::blocked_f32) all run these
// batched entry points; a single sample is a batch of one.
//
// Forward is a direct convolution: each output pixel's taps are read from x
// in place (or from a zero-bordered copy when pad > 0) and summed in exactly
// the order of the im2col + GEMM lowering it replaced, so no column matrix
// is written and the bits are those of that lowering.
//
// Backward has two kernels:
//   - dW += dY * im2row(x): the group's rows [G*OH*OW x Cin*k*k] are the
//     row-major right operand of gemm_acc — the same product as
//     dY * im2col(x)^T, with the same operands in the same k-blocks, and,
//     group by group, bit-identical to lowering the whole batch at once.
//   - dx is computed directly from a zero-bordered copy of dY, pixel by
//     pixel, in the exact addition order of the lowering it replaces (the
//     GEMM W^T * dY into a column matrix, scattered back onto the input
//     grid) — no column matrix is written.
// The per-layer Conv2dWorkspace keeps every buffer alive across batches (no
// steady-state allocation).

#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"
#include "util/aligned.hpp"

namespace parpde::nn {

// Persistent per-layer scratch for the batched convolution path. The
// backward's buffers hold one sample group (G = conv2d_batch_group samples),
// not the batch. Buffers only grow; a layer reuses them for every batch of
// the same geometry, and a caller may pre-size them to keep even the first
// call allocation-free. All buffers are 64-byte aligned so the kernels get
// clean vector loads.
struct Conv2dWorkspace {
  // Copies of x. Forward: the samples read from a copy rather than in place
  // (every sample, zero-bordered, when pad > 0; otherwise only a batch's
  // last one), plus slack for the last vector loads. Backward: the group's
  // im2row rows [G*OH*OW x Cin*k*k] for dW.
  util::AlignedVector<float> staging;
  util::AlignedVector<std::int64_t> tap_offsets;  // [Cin*k*k] forward taps
  util::AlignedVector<float> w_packed;  // [Cout*Cin*k*k] weights regrouped
                                        // for the forward or dx kernel
  util::AlignedVector<float> dy;         // [Cout x G*OH*OW] channel-major gathered dY
  util::AlignedVector<float> dy_padded;  // [G x Cout x padded plane] zero-bordered dY
};

// Activation applied in the forward's epilogue (the ForwardPlan peephole
// fuses a conv with the pointwise layer that follows it).
enum class FusedActivation { kNone, kLeakyReLU, kReLU, kTanh };

// Number of samples lowered per wide weight-gradient GEMM: the whole batch
// when its im2row matrix fits a fixed 1 MiB budget, otherwise the largest
// group that does, rounded down to (but never below) the alignment
// a = kGemmKBlock / gcd(OH*OW, kGemmKBlock). The alignment makes each group's
// pixel count a whole number of GEMM k-blocks, which keeps the grouped dW
// reduction bit-identical to the whole-batch one; when one sample already
// overflows the budget, a group holds a samples (at most the batch). Depends
// only on the problem geometry (never on thread count), so training results
// are reproducible across machines.
std::int64_t conv2d_batch_group(const ConvGeometry& g, std::int64_t batch);

// Grows `ws` so that conv2d_forward_batched on up to `batch` samples of
// geometry `g` with `cout` output channels never allocates.
void conv2d_forward_reserve(const ConvGeometry& g, std::int64_t cout,
                            std::int64_t batch, Conv2dWorkspace& ws);

// Grows `ws.staging` to hold the im2row rows of the largest sample group
// the backward lowers for `batch` samples of geometry `g`. Conv2d calls it
// in its forward so that dW's rows, the largest buffer a layer keeps, are
// allocated before that batch's tensors churn the heap.
void conv2d_backward_reserve(const ConvGeometry& g, std::int64_t batch,
                             Conv2dWorkspace& ws);

// y [N, Cout, OH, OW] = w (*) x + b for x [N, Cin, H, W], w [Cout, Cin, k, k]
// and b [Cout] (b may be empty to skip the bias).
void conv2d_forward_batched(const Tensor& x, const Tensor& w, const Tensor& b,
                            std::int64_t pad, Tensor& y, Conv2dWorkspace& ws);

// The raw-pointer core under it: y [n, cout, OH, OW] = act(w (*) x + bias)
// for n samples x [n, g.in_channels, g.height, g.width] and w
// [cout x g.col_rows()]. `bias` may be null. Per element the epilogue computes
// v = acc + bias[c] (+0 without a bias), then the activation formula; with
// neither a bias nor an activation y is the tap sum itself. `slope` is used
// by kLeakyReLU only. Never allocates once conv2d_forward_reserve sized `ws`
// for the call.
void conv2d_forward_batched(const float* x, std::int64_t n,
                            const ConvGeometry& g, const float* w,
                            std::int64_t cout, const float* bias,
                            FusedActivation act, float slope, float* y,
                            Conv2dWorkspace& ws);

// Full backward: dx = w^T (*) dy (overwritten), dw += dy (*) x and
// db += sum(dy) (both accumulating).
void conv2d_backward_batched(const Tensor& x, const Tensor& dy,
                             const Tensor& w, std::int64_t pad, Tensor& dx,
                             Tensor& dw, Tensor& db, Conv2dWorkspace& ws);

// Parameters-only backward: the dw/db of conv2d_backward_batched, bit for
// bit, without the data gradient (for a network's first layer, whose input
// gradient nobody reads).
void conv2d_backward_weights_batched(const Tensor& x, const Tensor& dy,
                                     std::int64_t pad, Tensor& dw, Tensor& db,
                                     Conv2dWorkspace& ws);

}  // namespace parpde::nn
