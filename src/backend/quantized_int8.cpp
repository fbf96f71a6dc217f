#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "backend/kernel_backend.hpp"
#include "tensor/im2col.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PARPDE_INT8_X86 1
#endif

// QuantizedInt8Backend — inference-only int8 execution provider.
//
// Numerics (see docs/performance.md for the calibration scheme):
//   - Weights: per-output-channel symmetric, qw = round(w / s_w[c]) clamped
//     to ±63. Seven bits instead of eight so the AVX2 vpmaddubsw pair sums
//     (max 2*255*63 = 32130) cannot saturate int16 — every ISA path computes
//     the identical int32 accumulator.
//   - Activations: uint8, zero point 128, fixed per-layer scale
//     s_x = max_abs * headroom / 127 from a one-time fp32 calibration pass.
//     A fixed scale (never derived from the tile at hand) makes a tile's
//     result independent of which other tiles or batch members ran with it
//     and of the tile geometry.
//   - Accumulation: int32, exact. The zero-point correction
//     corr[c] = 128 * sum_p qw[c][p] is folded in by the epilogue:
//     y = (float)(acc - corr[c]) * (s_x * s_w[c]) + bias[c], then the fused
//     activation. The epilogue is compiled once (no per-ISA clones), so its
//     float contraction is the same no matter which int8 kernel ran.
//
// Layout: K is padded to a multiple of 4 and Cout to a multiple of 4 with
// zero weight rows, so the micro-kernel always works on full 4-row x
// 16-column int32 tiles; each 16-column block packs its B panel as
// panel[g*64 + j*4 + t] = colrow(4g+t)[j0+j] (the byte-quad layout vpdpbusd
// consumes directly). Column rows are addressed through a per-call offset
// table: for unpadded convs (the halo-pad rollout path) row r = (c,ky,kx)
// of the implicit column matrix is just the quantized input shifted by
// (c*h + ky)*w + kx, so the panel packs straight out of the small qin tile
// and the big column matrix is never materialized; padded convs fall back
// to an explicit uint8 im2col (pad byte 128 == the quantized zero) with
// off[r] = r*plane. Parallelism is over column blocks only — each thread
// writes disjoint output columns, so results are bit-identical at any
// worker count.

namespace parpde::backend {

namespace {

constexpr std::int64_t kBlockCols = 16;  // columns per micro-kernel block
constexpr std::int64_t kQuantizeGrain = 1 << 14;
// Calibration headroom: activations may exceed the step-0 calibrated range
// as the autoregressive rollout drifts; 2x costs one bit of resolution and
// keeps later steps inside the representable range.
constexpr float kHeadroom = 2.0f;

std::int64_t round_up4(std::int64_t v) { return (v + 3) & ~std::int64_t{3}; }

// --- per-layer quantized state ---------------------------------------------

struct QLayer {
  std::int64_t cin = 0, cout = 0, kernel = 0, pad = 0;
  std::int64_t krows = 0;    // cin*k*k (real K extent)
  std::int64_t kpad = 0;     // K rounded up to a multiple of 4
  std::int64_t kgroups = 0;  // kpad / 4
  std::int64_t cpad = 0;     // Cout rounded up to a multiple of 4
  const float* bias = nullptr;
  Fused fused = Fused::kNone;
  float slope = 0.0f;

  util::AlignedVector<std::int32_t> wq;      // [cpad x kgroups] packed quads
  util::AlignedVector<std::int32_t> corr;    // [cpad] 128 * sum(qw row)
  util::AlignedVector<float> wscale;         // [cout] per-channel weight scale
  util::AlignedVector<float> dscale;         // [cpad] s_x * wscale (calibrated)
  float sx = 1.0f;      // activation scale (set by calibration)
  float inv_sx = 1.0f;  // 1 / sx
};

class Int8PlanContext final : public PlanContext {
 public:
  Int8PlanContext(const std::vector<ConvLayerDesc>& layers, std::int64_t max_h,
                  std::int64_t max_w, std::int64_t max_batch) {
    std::int64_t h = max_h, w = max_w;
    std::int64_t qin_peak = 0, qcol_peak = 0, off_peak = 0;
    layers_.reserve(layers.size());
    for (const ConvLayerDesc& l : layers) {
      QLayer q;
      q.cin = l.in_channels;
      q.cout = l.out_channels;
      q.kernel = l.kernel;
      q.pad = l.pad;
      q.krows = l.in_channels * l.kernel * l.kernel;
      q.kpad = round_up4(q.krows);
      q.kgroups = q.kpad / 4;
      q.cpad = round_up4(l.out_channels);
      q.bias = l.bias;
      q.fused = l.fused;
      q.slope = l.slope;
      quantize_weights(q, l.weight);
      const ConvGeometry g{q.cin, h, w, q.kernel, q.pad};
      // +16 slack: the direct-from-qin panel pack vector-loads up to 14
      // bytes past the tile (the lanes are discarded by the epilogue). In a
      // batch the interior samples' overshoot reads the next sample's bytes
      // instead — still defined memory, still discarded lanes.
      qin_peak = std::max(qin_peak, max_batch * q.cin * h * w + 16);
      // +64 slack: same story for the right-edge pack out of the explicit
      // column matrix (padded convs only).
      if (q.pad > 0) {
        qcol_peak = std::max(qcol_peak, max_batch * q.kpad * g.col_cols() + 64);
      }
      off_peak = std::max(off_peak, q.kpad);
      panel_bytes_ = std::max(panel_bytes_, q.kgroups * 64);
      acc_ints_ = std::max(acc_ints_, q.cpad * kBlockCols);
      h = g.out_height();
      w = g.out_width();
      layers_.push_back(std::move(q));
    }
    qin_.resize(static_cast<std::size_t>(qin_peak));
    qcol_.resize(static_cast<std::size_t>(qcol_peak));
    off_.resize(static_cast<std::size_t>(off_peak));
  }

  [[nodiscard]] std::uint64_t growth_events() const noexcept override {
    return growths_;
  }

  std::uint8_t* qin(std::int64_t bytes) { return ensure(qin_, bytes); }
  std::uint8_t* qcol(std::int64_t bytes) { return ensure(qcol_, bytes); }
  std::int32_t* off(std::int64_t entries) {
    if (static_cast<std::int64_t>(off_.size()) < entries) {
      off_.resize(static_cast<std::size_t>(entries));
      ++growths_;
    }
    return off_.data();
  }

  [[nodiscard]] const QLayer& layer(int i) const {
    return layers_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] bool calibrated() const noexcept { return calibrated_; }
  [[nodiscard]] std::int64_t panel_bytes() const noexcept { return panel_bytes_; }
  [[nodiscard]] std::int64_t acc_ints() const noexcept { return acc_ints_; }

  void set_ranges(const std::vector<float>& max_abs) {
    if (max_abs.size() != layers_.size()) {
      throw std::invalid_argument(
          "QuantizedInt8Backend: one input range per conv layer required");
    }
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      QLayer& q = layers_[i];
      q.sx = max_abs[i] > 0.0f ? max_abs[i] * kHeadroom / 127.0f : 1.0f;
      q.inv_sx = 1.0f / q.sx;
      for (std::int64_t c = 0; c < q.cout; ++c) {
        q.dscale[static_cast<std::size_t>(c)] =
            q.sx * q.wscale[static_cast<std::size_t>(c)];
      }
    }
    calibrated_ = true;
  }

 private:
  static void quantize_weights(QLayer& q, const float* w) {
    q.wq.assign(static_cast<std::size_t>(q.cpad * q.kgroups), 0);
    q.corr.assign(static_cast<std::size_t>(q.cpad), 0);
    q.wscale.assign(static_cast<std::size_t>(q.cout), 0.0f);
    q.dscale.assign(static_cast<std::size_t>(q.cpad), 0.0f);
    std::vector<std::int8_t> row(static_cast<std::size_t>(q.kpad));
    for (std::int64_t c = 0; c < q.cout; ++c) {
      const float* wrow = w + c * q.krows;
      float maxw = 0.0f;
      for (std::int64_t p = 0; p < q.krows; ++p) {
        maxw = std::max(maxw, std::fabs(wrow[p]));
      }
      const float scale = maxw > 0.0f ? maxw / 63.0f : 1.0f;
      const float inv = 1.0f / scale;
      q.wscale[static_cast<std::size_t>(c)] = scale;
      std::fill(row.begin(), row.end(), std::int8_t{0});
      std::int32_t sum = 0;
      for (std::int64_t p = 0; p < q.krows; ++p) {
        const long v = std::lrintf(wrow[p] * inv);
        const auto qv = static_cast<std::int8_t>(
            std::clamp<long>(v, -63, 63));
        row[static_cast<std::size_t>(p)] = qv;
        sum += qv;
      }
      std::memcpy(&q.wq[static_cast<std::size_t>(c * q.kgroups)], row.data(),
                  static_cast<std::size_t>(q.kpad));
      q.corr[static_cast<std::size_t>(c)] = 128 * sum;
    }
  }

  std::uint8_t* ensure(util::AlignedVector<std::uint8_t>& buf,
                       std::int64_t bytes) {
    if (static_cast<std::int64_t>(buf.size()) < bytes) {
      buf.resize(static_cast<std::size_t>(bytes));
      ++growths_;
    }
    return buf.data();
  }

  std::vector<QLayer> layers_;
  util::AlignedVector<std::uint8_t> qin_;
  util::AlignedVector<std::uint8_t> qcol_;
  util::AlignedVector<std::int32_t> off_;  // column-row offset table
  std::int64_t panel_bytes_ = 0;
  std::int64_t acc_ints_ = 0;
  std::uint64_t growths_ = 0;
  bool calibrated_ = false;
};

// Per-thread micro-kernel scratch (panel + accumulator tile); persists across
// calls like the fp32 GEMM packing buffers, so the steady state never
// allocates.
thread_local util::AlignedVector<std::uint8_t> t_qpanel;
thread_local util::AlignedVector<std::int32_t> t_qacc;

// --- quantization + uint8 im2col -------------------------------------------

// Round-to-nearest-even (cvtps2dq under the default MXCSR == lrintf), add
// the 128 zero point, saturate to [0, 255]. The scalar tail goes through
// the same cvt instruction (_mm_cvtss_si32) and mimics the packed path's
// wrap-then-saturate, so an element quantizes to the same byte no matter
// where the vector/tail boundary falls — the boundary shifts with the tile
// geometry and the batch size.
void quantize_u8(const float* x, std::int64_t n, float inv_sx,
                 std::uint8_t* q) {
  // Health monitor: values the uint8 clamp actually clipped. Counted per
  // chunk into a thread-local accumulator, published once per chunk — the
  // saturating pack stays branch-free and the clean path costs two compares
  // per vector. Persistent saturation means the calibrated activation scale
  // no longer covers the data (HealthReport::quant_saturations).
  static telemetry::Counter& saturated =
      telemetry::counter("backend.int8.saturated");
  util::ThreadPool::global().parallel_for(
      n, kQuantizeGrain, [&](std::int64_t b, std::int64_t e) {
        std::uint64_t clipped = 0;
#if defined(PARPDE_INT8_X86)
        const __m128 s = _mm_set1_ps(inv_sx);
        const __m128i zp = _mm_set1_epi32(128);
        const __m128i lo = _mm_setzero_si128();
        const __m128i hi = _mm_set1_epi32(255);
        std::int64_t i = b;
        for (; i + 16 <= e; i += 16) {
          const __m128i a0 = _mm_add_epi32(
              _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + i), s)), zp);
          const __m128i a1 = _mm_add_epi32(
              _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + i + 4), s)), zp);
          const __m128i a2 = _mm_add_epi32(
              _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + i + 8), s)), zp);
          const __m128i a3 = _mm_add_epi32(
              _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + i + 12), s)), zp);
          _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                           _mm_packus_epi16(_mm_packs_epi32(a0, a1),
                                            _mm_packs_epi32(a2, a3)));
          const __m128i bad01 = _mm_or_si128(
              _mm_or_si128(_mm_cmplt_epi32(a0, lo), _mm_cmpgt_epi32(a0, hi)),
              _mm_or_si128(_mm_cmplt_epi32(a1, lo), _mm_cmpgt_epi32(a1, hi)));
          const __m128i bad23 = _mm_or_si128(
              _mm_or_si128(_mm_cmplt_epi32(a2, lo), _mm_cmpgt_epi32(a2, hi)),
              _mm_or_si128(_mm_cmplt_epi32(a3, lo), _mm_cmpgt_epi32(a3, hi)));
          if (_mm_movemask_epi8(_mm_or_si128(bad01, bad23)) != 0) {
            // Rare path: re-test each register to get an exact lane count.
            const __m128i regs[4] = {a0, a1, a2, a3};
            for (const __m128i& a : regs) {
              const int mask = _mm_movemask_ps(_mm_castsi128_ps(_mm_or_si128(
                  _mm_cmplt_epi32(a, lo), _mm_cmpgt_epi32(a, hi))));
              clipped += static_cast<std::uint64_t>(
                  std::popcount(static_cast<unsigned>(mask)));
            }
          }
        }
        for (; i < e; ++i) {
          const auto v = static_cast<std::int32_t>(
              static_cast<std::uint32_t>(_mm_cvtss_si32(
                  _mm_mul_ss(_mm_set_ss(x[i]), _mm_set_ss(inv_sx)))) +
              128u);
          clipped += static_cast<std::uint64_t>(v < 0 || v > 255);
          q[i] = static_cast<std::uint8_t>(std::clamp<std::int32_t>(v, 0, 255));
        }
#else
        for (std::int64_t i = b; i < e; ++i) {
          const long v = std::lrintf(x[i] * inv_sx) + 128;
          clipped += static_cast<std::uint64_t>(v < 0 || v > 255);
          q[i] = static_cast<std::uint8_t>(std::clamp<long>(v, 0, 255));
        }
#endif
        if (clipped != 0) saturated.add(clipped);
      });
}

// uint8 twin of parpde::im2col: identical loop structure, pad byte 128
// (the quantized zero, so zero padding commutes with quantization).
void im2col_u8(const std::uint8_t* x, const ConvGeometry& g,
               std::uint8_t* col) {
  const std::int64_t oh = g.out_height();
  const std::int64_t ow = g.out_width();
  const std::int64_t plane = oh * ow;
  std::int64_t r = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    const std::uint8_t* src = x + c * g.height * g.width;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++r) {
        std::uint8_t* dst = col + r * plane;
        const std::int64_t x_lo = std::max<std::int64_t>(0, g.pad - kx);
        const std::int64_t x_hi =
            std::min<std::int64_t>(ow, g.width + g.pad - kx);
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t sy = y + ky - g.pad;
          std::uint8_t* drow = dst + y * ow;
          if (sy < 0 || sy >= g.height) {
            std::memset(drow, 128, static_cast<std::size_t>(ow));
            continue;
          }
          if (x_lo > 0) std::memset(drow, 128, static_cast<std::size_t>(x_lo));
          if (x_hi > x_lo) {
            std::memcpy(drow + x_lo, src + sy * g.width + x_lo + kx - g.pad,
                        static_cast<std::size_t>(x_hi - x_lo));
          }
          if (ow > x_hi) {
            std::memset(drow + x_hi, 128, static_cast<std::size_t>(ow - x_hi));
          }
        }
      }
    }
  }
}

// --- B-panel packing --------------------------------------------------------

// panel[g*64 + j*4 + t] = base[off[4g+t] + j] for 16 columns — the row
// offsets come from the per-call table, so the same pack serves both the
// direct-from-qin path and the explicit column matrix. The 4x16 byte
// transpose runs in ~11 SSE2 ops per k-group; edge blocks pack a full 16
// columns anyway (the loads stay inside the buffer thanks to the slack
// bytes) and the epilogue simply discards the out-of-range lanes.
#if defined(PARPDE_INT8_X86)
void pack_panel(const std::uint8_t* base, const std::int32_t* off,
                std::int64_t kgroups, std::uint8_t* panel) {
  for (std::int64_t g = 0; g < kgroups; ++g) {
    const std::int32_t* o = off + 4 * g;
    const __m128i v0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + o[0]));
    const __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + o[1]));
    const __m128i v2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + o[2]));
    const __m128i v3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + o[3]));
    const __m128i ab_lo = _mm_unpacklo_epi8(v0, v1);
    const __m128i ab_hi = _mm_unpackhi_epi8(v0, v1);
    const __m128i cd_lo = _mm_unpacklo_epi8(v2, v3);
    const __m128i cd_hi = _mm_unpackhi_epi8(v2, v3);
    __m128i* out = reinterpret_cast<__m128i*>(panel + g * 64);
    _mm_storeu_si128(out + 0, _mm_unpacklo_epi16(ab_lo, cd_lo));  // cols 0-3
    _mm_storeu_si128(out + 1, _mm_unpackhi_epi16(ab_lo, cd_lo));  // cols 4-7
    _mm_storeu_si128(out + 2, _mm_unpacklo_epi16(ab_hi, cd_hi));  // cols 8-11
    _mm_storeu_si128(out + 3, _mm_unpackhi_epi16(ab_hi, cd_hi));  // 12-15
  }
}
#else
void pack_panel(const std::uint8_t* base, const std::int32_t* off,
                std::int64_t kgroups, std::uint8_t* panel) {
  for (std::int64_t g = 0; g < kgroups; ++g) {
    for (std::int64_t j = 0; j < kBlockCols; ++j) {
      for (std::int64_t t = 0; t < 4; ++t) {
        panel[g * 64 + j * 4 + t] = base[off[4 * g + t] + j];
      }
    }
  }
}
#endif

// --- int8 micro-kernels -----------------------------------------------------

// acc[r*16 + j] = sum_g sum_t panel[g*64 + j*4 + t] * qw_byte(r, 4g+t) for
// all cpad rows of one 16-column block. Weights stay within ±63, so every
// path below produces the identical int32 result (no int16 saturation is
// reachable on the AVX2 path).
using KernelFn = void (*)(const std::uint8_t*, const std::int32_t*,
                          std::int64_t, std::int64_t, std::int32_t*);

void kernel_scalar(const std::uint8_t* panel, const std::int32_t* wq,
                   std::int64_t kgroups, std::int64_t row_quads,
                   std::int32_t* acc) {
  for (std::int64_t r = 0; r < 4 * row_quads; ++r) {
    const std::int32_t* wrow = wq + r * kgroups;
    std::int32_t* arow = acc + r * kBlockCols;
    for (std::int64_t j = 0; j < kBlockCols; ++j) arow[j] = 0;
    for (std::int64_t g = 0; g < kgroups; ++g) {
      std::int8_t w4[4];
      std::memcpy(w4, &wrow[g], 4);
      const std::uint8_t* pj = panel + g * 64;
      for (std::int64_t j = 0; j < kBlockCols; ++j) {
        std::int32_t s = 0;
        for (std::int64_t t = 0; t < 4; ++t) {
          s += static_cast<std::int32_t>(pj[j * 4 + t]) *
               static_cast<std::int32_t>(w4[t]);
        }
        arow[j] += s;
      }
    }
  }
}

#if defined(PARPDE_INT8_X86)
__attribute__((target("avx2"))) void kernel_avx2(
    const std::uint8_t* panel, const std::int32_t* wq, std::int64_t kgroups,
    std::int64_t row_quads, std::int32_t* acc) {
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::int64_t rq = 0; rq < row_quads; ++rq) {
    const std::int32_t* w0 = wq + (rq * 4 + 0) * kgroups;
    const std::int32_t* w1 = wq + (rq * 4 + 1) * kgroups;
    const std::int32_t* w2 = wq + (rq * 4 + 2) * kgroups;
    const std::int32_t* w3 = wq + (rq * 4 + 3) * kgroups;
    __m256i a0lo = _mm256_setzero_si256(), a0hi = _mm256_setzero_si256();
    __m256i a1lo = _mm256_setzero_si256(), a1hi = _mm256_setzero_si256();
    __m256i a2lo = _mm256_setzero_si256(), a2hi = _mm256_setzero_si256();
    __m256i a3lo = _mm256_setzero_si256(), a3hi = _mm256_setzero_si256();
    for (std::int64_t g = 0; g < kgroups; ++g) {
      const __m256i blo = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(panel + g * 64));
      const __m256i bhi = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(panel + g * 64 + 32));
      // vpmaddubsw pairs (max |2*255*63| < 2^15) then vpmaddwd completes the
      // exact 4-byte dot product per 32-bit lane.
      const __m256i q0 = _mm256_set1_epi32(w0[g]);
      a0lo = _mm256_add_epi32(
          a0lo, _mm256_madd_epi16(_mm256_maddubs_epi16(blo, q0), ones));
      a0hi = _mm256_add_epi32(
          a0hi, _mm256_madd_epi16(_mm256_maddubs_epi16(bhi, q0), ones));
      const __m256i q1 = _mm256_set1_epi32(w1[g]);
      a1lo = _mm256_add_epi32(
          a1lo, _mm256_madd_epi16(_mm256_maddubs_epi16(blo, q1), ones));
      a1hi = _mm256_add_epi32(
          a1hi, _mm256_madd_epi16(_mm256_maddubs_epi16(bhi, q1), ones));
      const __m256i q2 = _mm256_set1_epi32(w2[g]);
      a2lo = _mm256_add_epi32(
          a2lo, _mm256_madd_epi16(_mm256_maddubs_epi16(blo, q2), ones));
      a2hi = _mm256_add_epi32(
          a2hi, _mm256_madd_epi16(_mm256_maddubs_epi16(bhi, q2), ones));
      const __m256i q3 = _mm256_set1_epi32(w3[g]);
      a3lo = _mm256_add_epi32(
          a3lo, _mm256_madd_epi16(_mm256_maddubs_epi16(blo, q3), ones));
      a3hi = _mm256_add_epi32(
          a3hi, _mm256_madd_epi16(_mm256_maddubs_epi16(bhi, q3), ones));
    }
    std::int32_t* out = acc + rq * 4 * kBlockCols;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 0), a0lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8), a0hi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 16), a1lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 24), a1hi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 32), a2lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 40), a2hi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 48), a3lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 56), a3hi);
  }
}

__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
kernel_vnni(const std::uint8_t* panel, const std::int32_t* wq,
            std::int64_t kgroups, std::int64_t row_quads, std::int32_t* acc) {
  for (std::int64_t rq = 0; rq < row_quads; ++rq) {
    const std::int32_t* w0 = wq + (rq * 4 + 0) * kgroups;
    const std::int32_t* w1 = wq + (rq * 4 + 1) * kgroups;
    const std::int32_t* w2 = wq + (rq * 4 + 2) * kgroups;
    const std::int32_t* w3 = wq + (rq * 4 + 3) * kgroups;
    __m512i a0 = _mm512_setzero_si512();
    __m512i a1 = _mm512_setzero_si512();
    __m512i a2 = _mm512_setzero_si512();
    __m512i a3 = _mm512_setzero_si512();
    for (std::int64_t g = 0; g < kgroups; ++g) {
      const __m512i b = _mm512_loadu_si512(panel + g * 64);
      a0 = _mm512_dpbusd_epi32(a0, b, _mm512_set1_epi32(w0[g]));
      a1 = _mm512_dpbusd_epi32(a1, b, _mm512_set1_epi32(w1[g]));
      a2 = _mm512_dpbusd_epi32(a2, b, _mm512_set1_epi32(w2[g]));
      a3 = _mm512_dpbusd_epi32(a3, b, _mm512_set1_epi32(w3[g]));
    }
    std::int32_t* out = acc + rq * 4 * kBlockCols;
    _mm512_storeu_si512(out + 0, a0);
    _mm512_storeu_si512(out + 16, a1);
    _mm512_storeu_si512(out + 32, a2);
    _mm512_storeu_si512(out + 48, a3);
  }
}
#endif  // PARPDE_INT8_X86

KernelFn pick_kernel() {
#if defined(PARPDE_INT8_X86)
  // Explicit dispatch through a cached function pointer (no IFUNC), so the
  // sanitizer builds that disable PARPDE_TARGET_CLONES stay clean here too.
  if (__builtin_cpu_supports("avx512vnni") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    return kernel_vnni;
  }
  if (__builtin_cpu_supports("avx2")) return kernel_avx2;
#endif
  return kernel_scalar;
}

const KernelFn g_kernel = pick_kernel();

// --- fused dequant epilogue -------------------------------------------------

// Compiled exactly once (no target clones): the int32 -> float conversion,
// scale, bias and activation use one fixed instruction sequence regardless
// of which int8 kernel produced the accumulators — a prerequisite for the
// backend's bit-determinism guarantee. On x86 the sequence is hand-written
// SSE2 (separate mulps/addps, never FMA) and EVERY element goes through the
// same 4-wide ops — edge blocks compute full vectors and store only the
// valid lanes — so results cannot depend on where a tail begins.
#if defined(PARPDE_INT8_X86)

inline void store_lanes(float* dst, __m128 v, std::int64_t count) {
  if (count >= 4) {
    _mm_storeu_ps(dst, v);
    return;
  }
  alignas(16) float tmp[4];
  _mm_store_ps(tmp, v);
  for (std::int64_t t = 0; t < count; ++t) dst[t] = tmp[t];
}

void dequant_epilogue(const std::int32_t* acc, const QLayer& l,
                      std::int64_t j0, std::int64_t jn, std::int64_t plane,
                      float* y) {
  const __m128 zero = _mm_setzero_ps();
  const __m128 slope = _mm_set1_ps(l.slope);
  for (std::int64_t c = 0; c < l.cout; ++c) {
    const std::int32_t* arow = acc + c * kBlockCols;
    const __m128i corr = _mm_set1_epi32(l.corr[static_cast<std::size_t>(c)]);
    const __m128 ds = _mm_set1_ps(l.dscale[static_cast<std::size_t>(c)]);
    const __m128 b =
        _mm_set1_ps(l.bias != nullptr ? l.bias[c] : 0.0f);
    float* yrow = y + c * plane + j0;
    for (std::int64_t j = 0; j < jn; j += 4) {
      const __m128i a = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(arow + j));
      const __m128 v = _mm_add_ps(
          _mm_mul_ps(_mm_cvtepi32_ps(_mm_sub_epi32(a, corr)), ds), b);
      __m128 r = v;
      switch (l.fused) {
        case Fused::kNone:
          break;
        case Fused::kLeakyReLU: {
          const __m128 pos = _mm_cmpge_ps(v, zero);
          r = _mm_or_ps(_mm_and_ps(pos, v),
                        _mm_andnot_ps(pos, _mm_mul_ps(slope, v)));
          break;
        }
        case Fused::kReLU:
          r = _mm_and_ps(_mm_cmpgt_ps(v, zero), v);
          break;
        case Fused::kTanh: {
          alignas(16) float tmp[4];
          _mm_store_ps(tmp, v);
          for (std::int64_t t = 0; t < 4 && j + t < jn; ++t) {
            yrow[j + t] = std::tanh(tmp[t]);
          }
          continue;
        }
      }
      store_lanes(yrow + j, r, jn - j);
    }
  }
}

#else  // !PARPDE_INT8_X86

void dequant_epilogue(const std::int32_t* acc, const QLayer& l,
                      std::int64_t j0, std::int64_t jn, std::int64_t plane,
                      float* y) {
  for (std::int64_t c = 0; c < l.cout; ++c) {
    const std::int32_t* arow = acc + c * kBlockCols;
    const std::int32_t corr = l.corr[static_cast<std::size_t>(c)];
    const float ds = l.dscale[static_cast<std::size_t>(c)];
    const float b = l.bias != nullptr ? l.bias[c] : 0.0f;
    float* yrow = y + c * plane + j0;
    switch (l.fused) {
      case Fused::kNone:
        for (std::int64_t j = 0; j < jn; ++j) {
          yrow[j] = static_cast<float>(arow[j] - corr) * ds + b;
        }
        break;
      case Fused::kLeakyReLU:
        for (std::int64_t j = 0; j < jn; ++j) {
          const float v = static_cast<float>(arow[j] - corr) * ds + b;
          yrow[j] = v >= 0.0f ? v : l.slope * v;
        }
        break;
      case Fused::kReLU:
        for (std::int64_t j = 0; j < jn; ++j) {
          const float v = static_cast<float>(arow[j] - corr) * ds + b;
          yrow[j] = v > 0.0f ? v : 0.0f;
        }
        break;
      case Fused::kTanh:
        for (std::int64_t j = 0; j < jn; ++j) {
          yrow[j] = std::tanh(static_cast<float>(arow[j] - corr) * ds + b);
        }
        break;
    }
  }
}

#endif  // PARPDE_INT8_X86

// --- the backend ------------------------------------------------------------

class QuantizedInt8Backend final : public BlockedF32Backend {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "int8"; }

  [[nodiscard]] std::unique_ptr<PlanContext> make_plan_context(
      const std::vector<ConvLayerDesc>& layers, std::int64_t max_h,
      std::int64_t max_w, std::int64_t max_batch = 1) const override {
    return std::make_unique<Int8PlanContext>(layers, max_h, max_w, max_batch);
  }

  [[nodiscard]] bool needs_calibration(const PlanContext& ctx) const override {
    return !static_cast<const Int8PlanContext&>(ctx).calibrated();
  }

  void set_input_ranges(PlanContext& ctx,
                        const std::vector<float>& max_abs) const override {
    static_cast<Int8PlanContext&>(ctx).set_ranges(max_abs);
  }

  // The solo path is the batched path at B = 1: the quantize chunking, the
  // offset table, the block decomposition and every kernel call are byte-for
  // byte the same, so delegating keeps one code path with no identity risk.
  void conv_forward(PlanContext& ctx, int layer, const float* x,
                    std::int64_t h, std::int64_t w, float* y) const override {
    conv_forward_batched(ctx, layer, x, 1, h, w, y);
  }

  void conv_forward_batched(PlanContext& ctx, int layer, const float* x,
                            std::int64_t batch, std::int64_t h, std::int64_t w,
                            float* y) const override {
    auto& c = static_cast<Int8PlanContext&>(ctx);
    if (!c.calibrated()) {
      throw std::logic_error(
          "QuantizedInt8Backend: conv_forward before calibration "
          "(ForwardPlan::calibrate or set_calibration)");
    }
    const QLayer& l = c.layer(layer);
    const ConvGeometry g{l.cin, h, w, l.kernel, l.pad};
    const std::int64_t oh = g.out_height();
    const std::int64_t ow = g.out_width();
    const std::int64_t plane = oh * ow;
    if (plane <= 0) {
      throw std::invalid_argument("conv_forward: input below kernel size");
    }

    static telemetry::Counter& flops =
        telemetry::counter("backend.int8.gemm_flops");
    static telemetry::Gauge& quant_s =
        telemetry::gauge("backend.int8.quantize_seconds");
    static telemetry::Gauge& dequant_s =
        telemetry::gauge("backend.int8.dequantize_seconds");
    flops.add(
        static_cast<std::uint64_t>(2 * l.cout * l.krows * batch * plane));
    telemetry::Span span(batch == 1 ? "conv.int8" : "conv.int8.batched",
                         "backend");

    // 1. Quantize the fp32 input at the layer's fixed calibrated scale —
    //    whole batch in one elementwise pass. quantize_u8 is chunk-boundary
    //    independent per element, so sample s's bytes match what a solo call
    //    on that sample alone would produce. The 16 trailing slack bytes are
    //    set to the quantized zero so the last sample's edge panel pack reads
    //    defined memory (interior samples overshoot into their neighbor).
    const std::int64_t sample = l.cin * h * w;
    std::uint8_t* qin = c.qin(batch * sample + 16);
    {
      util::WallTimer timer;
      quantize_u8(x, batch * sample, l.inv_sx, qin);
      quant_s.add(timer.seconds());
    }
    std::memset(qin + batch * sample, 128, 16);

    // 2. Column-row offset table — geometry-only, shared by every sample.
    //    Unpadded convs (the rollout's halo-pad path) pack panels straight
    //    out of qin: relative to an output pixel, row r = (ci,ky,kx) of the
    //    implicit column matrix lives at offset (ci*h + ky)*w + kx. Padded
    //    convs materialize the uint8 column matrix (pad byte 128 = quantized
    //    zero) per sample and the table degenerates to off[r] = r*plane.
    //    K-pad rows repeat the last real row — their weights are zero, so
    //    any in-range bytes contribute exactly zero.
    std::int32_t* off = c.off(l.kpad);

    // 3. Blocked int8 GEMM + fused dequant epilogue, parallel over disjoint
    //    16-column blocks across the covered samples (bit-identical at any
    //    worker count and any batch composition — each block's
    //    pack/kernel/epilogue sees only its own sample's bytes). Blocks never
    //    span output rows — the direct-from-qin base pointer is only linear
    //    within one — so the right edge of every row is a short block.
    //    Epilogue timing is trace-mode only: per-block stopwatches are too
    //    hot for the always-on path (see docs/observability.md).
    const std::int64_t nxb = (ow + kBlockCols - 1) / kBlockCols;
    const std::int64_t nblocks = oh * nxb;
    const bool trace = telemetry::enabled();
    const auto run_blocks = [&](std::int64_t s_base, std::int64_t scount,
                                const std::uint8_t* colbase,
                                std::int64_t sample_cols) {
      util::ThreadPool::global().parallel_for(
          scount * nblocks, 8, [&](std::int64_t b0, std::int64_t b1) {
            t_qpanel.resize(static_cast<std::size_t>(c.panel_bytes()));
            t_qacc.resize(static_cast<std::size_t>(c.acc_ints()));
            std::uint8_t* panel = t_qpanel.data();
            std::int32_t* acc = t_qacc.data();
            double dq = 0.0;
            for (std::int64_t t = b0; t < b1; ++t) {
              const std::int64_t s = t / nblocks;
              const std::int64_t blk = t % nblocks;
              const std::int64_t oy = blk / nxb;
              const std::int64_t x0 = (blk % nxb) * kBlockCols;
              const std::int64_t j0 = oy * ow + x0;
              const std::int64_t jn = std::min(kBlockCols, ow - x0);
              const std::uint8_t* scol = colbase + s * sample_cols;
              const std::uint8_t* base =
                  l.pad == 0 ? scol + oy * w + x0 : scol + j0;
              float* sy = y + (s_base + s) * l.cout * plane;
              pack_panel(base, off, l.kgroups, panel);
              g_kernel(panel, l.wq.data(), l.kgroups, l.cpad / 4, acc);
              if (trace) {
                util::WallTimer timer;
                dequant_epilogue(acc, l, j0, jn, plane, sy);
                dq += timer.seconds();
              } else {
                dequant_epilogue(acc, l, j0, jn, plane, sy);
              }
            }
            if (trace && dq > 0.0) dequant_s.add(dq);
          });
    };

    if (l.pad == 0) {
      std::int64_t r = 0;
      for (std::int64_t ci = 0; ci < l.cin; ++ci) {
        for (std::int64_t ky = 0; ky < l.kernel; ++ky) {
          for (std::int64_t kx = 0; kx < l.kernel; ++kx, ++r) {
            off[r] = static_cast<std::int32_t>((ci * h + ky) * w + kx);
          }
        }
      }
      for (; r < l.kpad; ++r) off[r] = off[r - 1];
      // No column matrix is materialized — panels pack straight out of qin —
      // so the working set per block is one sample's input plane and the
      // whole batch can run as one block sweep.
      run_blocks(0, batch, qin, sample);
    } else {
      std::int64_t r = 0;
      for (; r < l.krows; ++r) off[r] = static_cast<std::int32_t>(r * plane);
      for (; r < l.kpad; ++r) off[r] = off[r - 1];
      // Column-budget chunking, same rationale as the fp32 batched path: the
      // materialized uint8 column matrix must stay cache-resident between
      // im2col_u8 and the block sweep that consumes it, so large tiles are
      // lowered in sample groups. The budget is tighter than fp32's: the u8
      // column bytes are re-read by every pack_panel sweep, so they need to
      // sit in L2, not just L3. Per-sample bits are unchanged — every block
      // still packs from its own sample's columns only.
      constexpr std::int64_t kColBudgetBytes = std::int64_t{1} << 20;
      const std::int64_t col_bytes = l.kpad * plane;
      const std::int64_t chunk = std::min(
          batch, std::max<std::int64_t>(1, kColBudgetBytes / col_bytes));
      std::uint8_t* qcol = c.qcol(chunk * col_bytes + 64);
      for (std::int64_t s0 = 0; s0 < batch; s0 += chunk) {
        const std::int64_t cb = std::min(chunk, batch - s0);
        util::ThreadPool::global().parallel_for(
            cb, 1, [&](std::int64_t c0, std::int64_t c1) {
              for (std::int64_t s = c0; s < c1; ++s) {
                im2col_u8(qin + (s0 + s) * sample, g, qcol + s * col_bytes);
              }
            });
        run_blocks(s0, cb, qcol, col_bytes);
      }
    }
  }
};

}  // namespace

const KernelBackend& quantized_int8() {
  static const QuantizedInt8Backend backend;
  return backend;
}

}  // namespace parpde::backend
