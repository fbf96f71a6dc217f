#include "domain/halo.hpp"

#include <algorithm>
#include <stdexcept>

namespace parpde::domain {

namespace {

void check_frame(const Tensor& frame, const char* what) {
  if (frame.ndim() != 3) {
    throw std::invalid_argument(std::string(what) + ": expected [C,H,W] frame, got " +
                                shape_to_string(frame.shape()));
  }
}

}  // namespace

Tensor extract_interior(const Tensor& frame, const BlockRange& block) {
  return extract_with_halo(frame, block, 0);
}

Tensor extract_with_halo(const Tensor& frame, const BlockRange& block,
                         std::int64_t halo) {
  Tensor out;
  extract_with_halo_into(frame, block, halo, out);
  return out;
}

void extract_with_halo_into(const Tensor& frame, const BlockRange& block,
                            std::int64_t halo, Tensor& out) {
  check_frame(frame, "extract_with_halo");
  if (halo < 0) throw std::invalid_argument("extract_with_halo: negative halo");
  const auto c = frame.dim(0), h = frame.dim(1), w = frame.dim(2);
  if (block.h0 < 0 || block.h1 > h || block.w0 < 0 || block.w1 > w ||
      block.height() <= 0 || block.width() <= 0) {
    throw std::invalid_argument("extract_with_halo: block out of range");
  }
  const std::int64_t oh = block.height() + 2 * halo;
  const std::int64_t ow = block.width() + 2 * halo;
  if (out.ndim() != 3 || out.dim(0) != c || out.dim(1) != oh ||
      out.dim(2) != ow) {
    out = Tensor({c, oh, ow});
  } else {
    out.fill(0.0f);  // the physical-boundary margin must stay zero on reuse
  }
  for (std::int64_t ic = 0; ic < c; ++ic) {
    for (std::int64_t y = 0; y < oh; ++y) {
      const std::int64_t gy = block.h0 - halo + y;
      if (gy < 0 || gy >= h) continue;  // physical boundary: stays zero
      const std::int64_t gx_lo = std::max<std::int64_t>(block.w0 - halo, 0);
      const std::int64_t gx_hi = std::min<std::int64_t>(block.w1 + halo, w);
      if (gx_hi <= gx_lo) continue;
      const float* src = frame.data() + (ic * h + gy) * w + gx_lo;
      float* dst = out.data() + (ic * oh + y) * ow + (gx_lo - (block.w0 - halo));
      std::copy(src, src + (gx_hi - gx_lo), dst);
    }
  }
}

void insert_interior(Tensor& frame, const BlockRange& block,
                     const Tensor& interior) {
  check_frame(frame, "insert_interior");
  if (interior.ndim() != 3 || interior.dim(0) != frame.dim(0) ||
      interior.dim(1) != block.height() || interior.dim(2) != block.width()) {
    throw std::invalid_argument("insert_interior: interior shape mismatch");
  }
  if (block.h0 < 0 || block.h1 > frame.dim(1) || block.w0 < 0 ||
      block.w1 > frame.dim(2)) {
    throw std::invalid_argument("insert_interior: block out of range");
  }
  copy_window(frame, block.h0, block.w0, interior.data(), interior.dim(0),
              block.height(), block.width());
}

void pack_region_into(const Tensor& t, std::int64_t y0, std::int64_t hh,
                      std::int64_t x0, std::int64_t ww,
                      std::vector<float>& out) {
  const auto c = t.dim(0), h = t.dim(1), w = t.dim(2);
  out.resize(static_cast<std::size_t>(c * hh * ww));
  float* dst = out.data();
  for (std::int64_t ic = 0; ic < c; ++ic) {
    for (std::int64_t y = 0; y < hh; ++y) {
      const float* src = t.data() + (ic * h + y0 + y) * w + x0;
      std::copy(src, src + ww, dst);
      dst += ww;
    }
  }
}

void unpack_region(Tensor& t, std::int64_t y0, std::int64_t hh, std::int64_t x0,
                   std::int64_t ww, const std::vector<float>& strip) {
  const auto c = t.dim(0);
  if (strip.size() != static_cast<std::size_t>(c * hh * ww)) {
    throw std::runtime_error("unpack_region: strip size mismatch");
  }
  copy_window(t, y0, x0, strip.data(), c, hh, ww);
}

void zero_region(Tensor& t, std::int64_t y0, std::int64_t hh, std::int64_t x0,
                 std::int64_t ww) {
  const auto c = t.dim(0), h = t.dim(1), w = t.dim(2);
  for (std::int64_t ic = 0; ic < c; ++ic) {
    for (std::int64_t y = 0; y < hh; ++y) {
      float* dst = t.data() + (ic * h + y0 + y) * w + x0;
      std::fill(dst, dst + ww, 0.0f);
    }
  }
}

void copy_window(Tensor& dst, std::int64_t y0, std::int64_t x0,
                 const float* src, std::int64_t c, std::int64_t sh,
                 std::int64_t sw) {
  const auto h = dst.dim(1), w = dst.dim(2);
  for (std::int64_t ic = 0; ic < c; ++ic) {
    for (std::int64_t y = 0; y < sh; ++y) {
      float* d = dst.data() + (ic * h + y0 + y) * w + x0;
      std::copy(src, src + sw, d);
      src += sw;
    }
  }
}

}  // namespace parpde::domain
