#pragma once

// Subdomain extraction with overlap. Training-time decomposition (Sec. III)
// cuts each global frame into per-rank sections; in halo-pad mode the input
// section is enlarged by the receptive-field halo with *real* data from
// neighbouring subdomains ("input data for neighboring processes are
// overlapping"), while the target stays the bare interior.

#include <vector>

#include "domain/partition.hpp"
#include "tensor/tensor.hpp"

namespace parpde::domain {

// Extracts the interior of `block` from a global [C, H, W] frame.
Tensor extract_interior(const Tensor& frame, const BlockRange& block);

// Extracts `block` enlarged by `halo` grid lines on every side. Points outside
// the global grid (physical boundary) are zero-filled. Result is
// [C, height + 2 halo, width + 2 halo].
Tensor extract_with_halo(const Tensor& frame, const BlockRange& block,
                         std::int64_t halo);

// extract_with_halo writing into a caller-owned tensor: `out` is resized on
// first use and reused afterwards (re-zeroed so the physical-boundary margin
// stays correct), which keeps repeated callers allocation-free.
void extract_with_halo_into(const Tensor& frame, const BlockRange& block,
                            std::int64_t halo, Tensor& out);

// Inserts a [C, bh, bw] interior tensor into a global [C, H, W] frame.
void insert_interior(Tensor& frame, const BlockRange& block, const Tensor& interior);

// Window plumbing on [C, h, w] tensors, shared by the halo exchange, the
// rollout engines and the frame gather. A window is the rows [y0, y0 + hh)
// and columns [x0, x0 + ww) of every channel. None of these allocate once
// the destination has its size, so steady-state steps stay allocation-free.

// Copies the window into a packed strip (length C * hh * ww), reusing the
// capacity of `out`.
void pack_region_into(const Tensor& t, std::int64_t y0, std::int64_t hh,
                      std::int64_t x0, std::int64_t ww,
                      std::vector<float>& out);

// Inverse of pack_region_into; throws std::runtime_error when the strip
// length does not match the window.
void unpack_region(Tensor& t, std::int64_t y0, std::int64_t hh, std::int64_t x0,
                   std::int64_t ww, const std::vector<float>& strip);

// Zeroes the window.
void zero_region(Tensor& t, std::int64_t y0, std::int64_t hh, std::int64_t x0,
                 std::int64_t ww);

// Copies a dense [c, sh, sw] block (e.g. a ForwardPlan output) into the
// window of `dst` whose top-left corner is (y0, x0).
void copy_window(Tensor& dst, std::int64_t y0, std::int64_t x0,
                 const float* src, std::int64_t c, std::int64_t sh,
                 std::int64_t sw);

}  // namespace parpde::domain
