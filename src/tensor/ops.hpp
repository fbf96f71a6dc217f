#pragma once

// Elementwise operations, reductions, and spatial pad/crop helpers on Tensor.
// All binary ops require identical shapes (no broadcasting — keeps the math
// explicit and the library small).

#include <span>

#include "tensor/tensor.hpp"

namespace parpde::ops {

// out = a + b, a - b, a ⊙ b (entrywise).
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

// In-place: a += s * b  (AXPY).
void axpy(Tensor& a, float s, const Tensor& b);
// In-place: a *= s.
void scale(Tensor& a, float s);

// Reductions over all elements.
double sum(const Tensor& a);
double mean(const Tensor& a);
double max_abs(const Tensor& a);
// Sqrt of the mean squared entry (RMS norm).
double rms(const Tensor& a);
// L2 distance between two tensors of equal shape.
double l2_distance(const Tensor& a, const Tensor& b);
// Number of NaN/Inf values among x[0, n), read from the exponent bits:
// branch-free and allocation-free, cheap enough for the rollout health
// monitor to scan every step's output.
std::uint64_t count_nonfinite(const float* x, std::int64_t n);

// Spatial padding of an NCHW tensor with a constant value: adds `pad` rows and
// columns on each side of H and W.
Tensor pad_nchw(const Tensor& x, std::int64_t pad, float value = 0.0f);

// Crops `crop` rows/columns from each side of H and W of an NCHW tensor.
Tensor crop_nchw(const Tensor& x, std::int64_t crop);

// Extracts the window [h0, h0+hh) x [w0, w0+ww) from every sample/channel of
// an NCHW tensor.
Tensor slice_hw(const Tensor& x, std::int64_t h0, std::int64_t hh,
                std::int64_t w0, std::int64_t ww);

// Writes `patch` (NCHW) into `dst` (NCHW, same N and C) at offset (h0, w0).
void paste_hw(Tensor& dst, const Tensor& patch, std::int64_t h0, std::int64_t w0);

// Selects a single sample `n` from an NCHW tensor, producing a [1,C,H,W] tensor.
Tensor select_sample(const Tensor& x, std::int64_t n);

// Concatenates same-shaped [1,C,H,W] samples along the batch dimension.
Tensor stack_samples(const std::vector<Tensor>& samples);

// Copies the samples of NCHW `stacked` selected by `indices` into `out`,
// which is only (re)allocated when its shape changes, so a training loop's
// per-batch buffers are reused across the whole run.
void gather_samples(const Tensor& stacked,
                    std::span<const std::int64_t> indices, Tensor& out);

}  // namespace parpde::ops
