#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/int8_detail.hpp"
#include "backend/kernel_backend.hpp"
#include "tensor/im2col.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

// PARPDE_INT8_PORTABLE compiles the portable (non-x86) branch on any host; the
// tests build this file once more that way, next to the library's copy.
#if (defined(__x86_64__) || defined(__i386__)) && !defined(PARPDE_INT8_PORTABLE)
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
//     activation. The epilogue is compiled once (no per-ISA clones, and the
//     file is built with -ffp-contract=off), so its float sequence is the
//     same no matter which int8 kernel ran.
//
// Layout: one direct convolution over channel-quad activations. A layer's
// input is stored as [B][ceil(Cin/4)][H+2p][W+2p][4] bytes: the four channels
// of a quad sit next to each other per pixel (the byte quad vpdpbusd
// consumes), and byte 128 (the quantized zero) fills the padding ring and the
// missing channels of a last partial quad. A k-group is one (quad, ky, kx)
// tap, so for a block of 16 consecutive output pixels of one row it is a
// single contiguous 64-byte load at a fixed offset from the block's corner —
// nothing is packed and no column matrix exists. Weights are laid out to
// match: wq[g * cpad + r] holds output row r's four int8 taps of k-group g
// (zero for missing input channels and for the rows that pad Cout to a
// multiple of 4). A kernel call keeps up to 16 output rows of a block in
// registers. Blocks never span rows or samples; the right edge of a row is a
// short block whose loads run up to 15 pixels past the row (into the next
// row, plane or sample, or the slack bytes after the data) and whose extra
// lanes the epilogue discards. Parallelism is over blocks only — each thread
// writes disjoint outputs — so results are bit-identical at any worker count
// and any batch composition.
//
// Chaining: a layer whose ConvLayerDesc::feeds_next is set (ForwardPlan sets
// it when a conv's output feeds only the next conv) does not write y; its
// epilogue quantizes each activated value at the next layer's scale and
// writes the next layer's quads (same cvtps2dq + 128 + saturating pack as the
// fp32-input quantizer), and the context keeps them with the y they stand
// for. The next call must then be that next layer on that y. Only the first
// layer of a chain quantizes fp32 input and only an unmarked layer writes
// fp32 output.

namespace parpde::backend {

namespace {

constexpr std::int64_t kBlockCols = 16;  // output pixels per block
constexpr std::int64_t kMaxRows = 16;    // output rows one kernel call holds
// Bytes after the last quad plane: an edge block's 64-byte loads reach up to
// 60 bytes past the end of a row.
constexpr std::int64_t kSlackBytes = 64;
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
  std::int64_t quads = 0;    // input channel quads, ceil(cin / 4)
  std::int64_t kgroups = 0;  // quads * k * k
  std::int64_t cpad = 0;     // Cout rounded up to a multiple of 4
  const float* bias = nullptr;
  Fused fused = Fused::kNone;
  float slope = 0.0f;
  bool feeds_next = false;

  util::AlignedVector<std::int32_t> wq;      // [kgroups x cpad] packed quads
  util::AlignedVector<std::int32_t> corr;    // [cpad] 128 * sum(qw row)
  util::AlignedVector<float> wscale;         // [cout] per-channel weight scale
  util::AlignedVector<float> dscale;         // [cpad] s_x * wscale (calibrated)
  float sx = 1.0f;      // activation scale (set by calibration)
  float inv_sx = 1.0f;  // 1 / sx
};

// One call's channel-quad activation: [batch][quads][hp][wp][4] bytes.
struct QuadShape {
  std::int64_t quads = 0, hp = 0, wp = 0;

  [[nodiscard]] std::int64_t plane() const { return hp * wp * 4; }
  [[nodiscard]] std::int64_t sample() const { return quads * plane(); }
};

QuadShape input_shape(const QLayer& l, std::int64_t h, std::int64_t w) {
  return {l.quads, h + 2 * l.pad, w + 2 * l.pad};
}

class Int8PlanContext final : public PlanContext {
 public:
  Int8PlanContext(const std::vector<ConvLayerDesc>& layers, std::int64_t max_h,
                  std::int64_t max_w, std::int64_t max_batch) {
    std::int64_t h = max_h, w = max_w, quad_peak = 0;
    layers_.reserve(layers.size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const ConvLayerDesc& l = layers[i];
      if (l.feeds_next && (i + 1 >= layers.size() ||
                           layers[i + 1].in_channels != l.out_channels)) {
        throw std::invalid_argument(
            "QuantizedInt8Backend: feeds_next set on a layer whose output is "
            "not the next layer's input");
      }
      QLayer q;
      q.cin = l.in_channels;
      q.cout = l.out_channels;
      q.kernel = l.kernel;
      q.pad = l.pad;
      q.krows = l.in_channels * l.kernel * l.kernel;
      q.quads = (l.in_channels + 3) / 4;
      q.kgroups = q.quads * l.kernel * l.kernel;
      q.cpad = round_up4(l.out_channels);
      q.bias = l.bias;
      q.fused = l.fused;
      q.slope = l.slope;
      q.feeds_next = l.feeds_next;
      quantize_weights(q, l.weight);
      quad_peak = std::max(
          quad_peak, max_batch * input_shape(q, h, w).sample() + kSlackBytes);
      const ConvGeometry g{q.cin, h, w, q.kernel, q.pad};
      h = g.out_height();
      w = g.out_width();
      layers_.push_back(std::move(q));
    }
    for (auto& buf : quads_) buf.resize(static_cast<std::size_t>(quad_peak));
  }

  // Quad buffer `i` (0 or 1), grown to hold `batch` samples of `s` plus the
  // slack bytes, which are set to the quantized zero.
  std::uint8_t* quads(int i, const QuadShape& s, std::int64_t batch) {
    auto& buf = quads_[i];
    const std::int64_t bytes = batch * s.sample();
    if (static_cast<std::int64_t>(buf.size()) < bytes + kSlackBytes) {
      buf.resize(static_cast<std::size_t>(bytes + kSlackBytes));
    }
    std::memset(buf.data() + bytes, 128, kSlackBytes);
    return buf.data();
  }

  // The quads a chained call left for `layer`: returns the buffer index when
  // the previous call was layer - 1 marked feeds_next and produced `y` at this
  // geometry, -1 when no chain is pending. Anything else is a caller bug.
  int take_chain(int layer, const float* x, std::int64_t batch, std::int64_t h,
                 std::int64_t w) {
    if (pending_.layer < 0) return -1;
    const Pending p = pending_;
    pending_ = Pending{};
    if (layer != p.layer + 1 || x != p.y || batch != p.batch || h != p.h ||
        w != p.w) {
      throw std::logic_error(
          "QuantizedInt8Backend: a feeds_next layer must be followed by the "
          "next layer on its output");
    }
    return p.buf;
  }

  void chain(int layer, const float* y, int buf, std::int64_t batch,
             std::int64_t h, std::int64_t w) {
    pending_ = Pending{layer, y, buf, batch, h, w};
  }

  [[nodiscard]] const QLayer& layer(int i) const {
    return layers_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] bool calibrated() const noexcept { return calibrated_; }

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
    pending_ = Pending{};  // quads of a pending chain used the old scales
    calibrated_ = true;
  }

 private:
  struct Pending {
    int layer = -1;  // layer whose output quads wait in quads_[buf]
    const float* y = nullptr;
    int buf = 0;
    std::int64_t batch = 0, h = 0, w = 0;  // geometry of the waiting input
  };

  static void quantize_weights(QLayer& q, const float* w) {
    q.wq.assign(static_cast<std::size_t>(q.kgroups * q.cpad), 0);
    q.corr.assign(static_cast<std::size_t>(q.cpad), 0);
    q.wscale.assign(static_cast<std::size_t>(q.cout), 0.0f);
    q.dscale.assign(static_cast<std::size_t>(q.cpad), 0.0f);
    auto* bytes = reinterpret_cast<std::int8_t*>(q.wq.data());
    const std::int64_t kk = q.kernel * q.kernel;
    for (std::int64_t c = 0; c < q.cout; ++c) {
      const float* wrow = w + c * q.krows;
      float maxw = 0.0f;
      for (std::int64_t p = 0; p < q.krows; ++p) {
        maxw = std::max(maxw, std::fabs(wrow[p]));
      }
      const float scale = maxw > 0.0f ? maxw / 63.0f : 1.0f;
      const float inv = 1.0f / scale;
      q.wscale[static_cast<std::size_t>(c)] = scale;
      std::int32_t sum = 0;
      for (std::int64_t p = 0; p < q.krows; ++p) {
        const long v = std::lrintf(wrow[p] * inv);
        const auto qv = static_cast<std::int8_t>(std::clamp<long>(v, -63, 63));
        // p = ci*k*k + tap; k-group (ci / 4, tap), byte ci % 4.
        const std::int64_t ci = p / kk;
        const std::int64_t g = (ci / 4) * kk + p % kk;
        bytes[(g * q.cpad + c) * 4 + ci % 4] = qv;
        sum += qv;
      }
      q.corr[static_cast<std::size_t>(c)] = 128 * sum;
    }
  }

  std::vector<QLayer> layers_;
  util::AlignedVector<std::uint8_t> quads_[2];
  Pending pending_;
  bool calibrated_ = false;
};

// Writes the padding ring of every quad plane (byte 128); the interior is
// written by the fp32 quantizer or the previous layer's epilogue.
void fill_ring(std::uint8_t* q, const QuadShape& s, std::int64_t batch,
               std::int64_t pad) {
  if (pad == 0) return;
  const std::int64_t row = s.wp * 4;
  for (std::int64_t p = 0; p < batch * s.quads; ++p) {
    std::uint8_t* plane = q + p * s.plane();
    std::memset(plane, 128, static_cast<std::size_t>(pad * row));
    for (std::int64_t y = pad; y < s.hp - pad; ++y) {
      std::memset(plane + y * row, 128, static_cast<std::size_t>(pad * 4));
      std::memset(plane + y * row + (s.wp - pad) * 4, 128,
                  static_cast<std::size_t>(pad * 4));
    }
    std::memset(plane + (s.hp - pad) * row, 128,
                static_cast<std::size_t>(pad * row));
  }
}

// --- quantization into quads -------------------------------------------------

// Round-to-nearest-even (cvtps2dq under the default MXCSR == lrintf), add the
// 128 zero point, saturate to [0, 255]. Every element goes through the same
// 4-wide ops, so a value quantizes to the same byte whether it comes from the
// fp32 input or from the previous layer's epilogue, and wherever a row or
// block edge falls.
#if defined(PARPDE_INT8_X86)

// Quantizes channel vectors v0..v3 (4 pixels each) and stores the first npx
// pixels as byte quads at dst; channels nch..3 store the quantized zero.
// Returns how many valid lanes clipped.
inline std::uint64_t store_quads4(__m128 v0, __m128 v1, __m128 v2, __m128 v3,
                                  std::int64_t nch, __m128 inv,
                                  std::int64_t npx, std::uint8_t* dst) {
  const __m128i zp = _mm_set1_epi32(128);
  const auto quantize = [&](__m128 v, std::int64_t t) {
    return t < nch ? _mm_add_epi32(_mm_cvtps_epi32(_mm_mul_ps(v, inv)), zp)
                   : zp;
  };
  const auto out_of_range = [](__m128i a) {
    return _mm_castsi128_ps(
        _mm_or_si128(_mm_cmplt_epi32(a, _mm_setzero_si128()),
                     _mm_cmpgt_epi32(a, _mm_set1_epi32(255))));
  };
  const __m128i a0 = quantize(v0, 0), a1 = quantize(v1, 1);
  const __m128i a2 = quantize(v2, 2), a3 = quantize(v3, 3);
  const int lanes = (1 << std::min<std::int64_t>(npx, 4)) - 1;
  std::uint64_t clipped = 0;
  const __m128 bad = _mm_or_ps(_mm_or_ps(out_of_range(a0), out_of_range(a1)),
                               _mm_or_ps(out_of_range(a2), out_of_range(a3)));
  if ((_mm_movemask_ps(bad) & lanes) != 0) {
    // Rare path: re-test each channel to get an exact lane count.
    for (const __m128i& a : {a0, a1, a2, a3}) {
      clipped += static_cast<std::uint64_t>(std::popcount(
          static_cast<unsigned>(_mm_movemask_ps(out_of_range(a)) & lanes)));
    }
  }
  // The same saturating int32 -> int16 -> uint8 pack as quantizing a flat
  // array, giving channel-major bytes [c][p]; two byte interleaves with the
  // upper half transpose them to the quads [p][c].
  __m128i bytes =
      _mm_packus_epi16(_mm_packs_epi32(a0, a1), _mm_packs_epi32(a2, a3));
  bytes = _mm_unpacklo_epi8(bytes, _mm_srli_si128(bytes, 8));
  bytes = _mm_unpacklo_epi8(bytes, _mm_srli_si128(bytes, 8));
  if (npx >= 4) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), bytes);
  } else {
    alignas(16) std::uint8_t tmp[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), bytes);
    std::memcpy(dst, tmp, static_cast<std::size_t>(npx * 4));
  }
  return clipped;
}

// One padded-row interior: channels c0..c0+nch of `w` pixels, channel rows
// `stride` floats apart, into byte quads.
std::uint64_t quantize_row(const float* x, std::int64_t stride,
                           std::int64_t nch, std::int64_t w, float inv_sx,
                           std::uint8_t* dst) {
  const __m128 inv = _mm_set1_ps(inv_sx);
  std::uint64_t clipped = 0;
  const auto load = [&](std::int64_t t, std::int64_t j, std::int64_t n) {
    if (t >= nch) return _mm_setzero_ps();
    if (n == 4) return _mm_loadu_ps(x + t * stride + j);
    alignas(16) float tmp[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    std::memcpy(tmp, x + t * stride + j, static_cast<std::size_t>(n) * 4);
    return _mm_load_ps(tmp);
  };
  for (std::int64_t j = 0; j < w; j += 4) {
    const std::int64_t n = std::min<std::int64_t>(4, w - j);
    clipped += store_quads4(load(0, j, n), load(1, j, n), load(2, j, n),
                            load(3, j, n), nch, inv, n, dst + j * 4);
  }
  return clipped;
}

#else  // !PARPDE_INT8_X86

inline std::uint8_t quantize_byte(float v, float inv, std::uint64_t& clipped) {
  const long q = std::lrintf(v * inv) + 128;
  clipped += static_cast<std::uint64_t>(q < 0 || q > 255);
  return static_cast<std::uint8_t>(std::clamp<long>(q, 0, 255));
}

std::uint64_t quantize_row(const float* x, std::int64_t stride,
                           std::int64_t nch, std::int64_t w, float inv_sx,
                           std::uint8_t* dst) {
  std::uint64_t clipped = 0;
  for (std::int64_t j = 0; j < w; ++j) {
    for (std::int64_t t = 0; t < 4; ++t) {
      dst[j * 4 + t] = t < nch ? quantize_byte(x[t * stride + j], inv_sx,
                                               clipped)
                               : std::uint8_t{128};
    }
  }
  return clipped;
}

#endif  // PARPDE_INT8_X86

// Health monitor: values the uint8 clamp actually clipped, counted per chunk
// and published once per chunk. Persistent saturation means the calibrated
// activation scale no longer covers the data (HealthReport::quant_saturations).
telemetry::Counter& saturated_counter() {
  static telemetry::Counter& saturated =
      telemetry::counter("backend.int8.saturated");
  return saturated;
}

// fp32 [B][Cin][h][w] -> the interior of quads `s`, parallel over rows.
void quantize_quads(const float* x, std::int64_t batch, const QLayer& l,
                    std::int64_t h, std::int64_t w, const QuadShape& s,
                    std::uint8_t* q) {
  const std::int64_t row_bytes = s.wp * 4;
  const std::int64_t grain =
      std::max<std::int64_t>(1, kQuantizeGrain / (4 * w));
  util::ThreadPool::global().parallel_for(
      batch * s.quads * h, grain, [&](std::int64_t r0, std::int64_t r1) {
        // Row r0 is row y of quad `quad` of sample `sample`; the loop steps
        // these along instead of dividing per row.
        std::int64_t y = r0 % h;
        std::int64_t quad = r0 / h % s.quads;
        std::int64_t sample = r0 / h / s.quads;
        std::uint64_t clipped = 0;
        for (std::int64_t r = r0; r < r1; ++r) {
          const std::int64_t c0 = quad * 4;
          std::uint8_t* dst =
              q + (sample * s.quads + quad) * s.plane() +
              (y + l.pad) * row_bytes + l.pad * 4;
          clipped += quantize_row(x + ((sample * l.cin + c0) * h + y) * w,
                                  h * w, std::min<std::int64_t>(4, l.cin - c0),
                                  w, l.inv_sx, dst);
          if (++y == h) {
            y = 0;
            if (++quad == s.quads) {
              quad = 0;
              ++sample;
            }
          }
        }
        if (clipped != 0) saturated_counter().add(clipped);
      });
}

// --- int8 direct-conv kernels ------------------------------------------------

// acc[r*16 + j] = sum over k-groups g = (quad, ky, kx) of the 4-byte dot
// product of in[g's offset + 4j ..] with w[g * wstride + r], for rows r <
// `rows` (a multiple of 4, at most kMaxRows) and the 16 pixels j of a block
// whose corner is `in`. Weights stay within ±63, so every kernel below
// produces the identical int32 result (no int16 saturation is reachable on
// the AVX2 path).
struct KernelShape {
  std::int64_t quads = 0, kernel = 0;
  std::int64_t plane = 0;    // bytes between quad planes
  std::int64_t row = 0;      // bytes between padded rows
  std::int64_t wstride = 0;  // weight words per k-group (cpad)
};

using KernelFn = void (*)(const std::uint8_t*, const KernelShape&,
                          const std::int32_t*, std::int64_t, std::int32_t*);

void kernel_scalar(const std::uint8_t* in, const KernelShape& s,
                   const std::int32_t* w, std::int64_t rows,
                   std::int32_t* acc) {
  std::fill(acc, acc + rows * kBlockCols, 0);
  for (std::int64_t q = 0; q < s.quads; ++q) {
    for (std::int64_t ky = 0; ky < s.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < s.kernel; ++kx, w += s.wstride) {
        const std::uint8_t* p = in + q * s.plane + ky * s.row + kx * 4;
        for (std::int64_t r = 0; r < rows; ++r) {
          std::int8_t w4[4];
          std::memcpy(w4, &w[r], 4);
          for (std::int64_t j = 0; j < kBlockCols; ++j) {
            std::int32_t sum = 0;
            for (std::int64_t t = 0; t < 4; ++t) {
              sum += static_cast<std::int32_t>(p[j * 4 + t]) *
                     static_cast<std::int32_t>(w4[t]);
            }
            acc[r * kBlockCols + j] += sum;
          }
        }
      }
    }
  }
}

#if defined(PARPDE_INT8_X86)

// Four rows at a time; the 16 pixels are two 32-byte halves.
__attribute__((target("avx2"))) void kernel_avx2(const std::uint8_t* in,
                                                 const KernelShape& s,
                                                 const std::int32_t* w,
                                                 std::int64_t rows,
                                                 std::int32_t* acc) {
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::int64_t r = 0; r < rows; r += 4) {
    __m256i lo[4], hi[4];
    for (int t = 0; t < 4; ++t) {
      lo[t] = _mm256_setzero_si256();
      hi[t] = _mm256_setzero_si256();
    }
    const std::int32_t* wg = w + r;
    for (std::int64_t q = 0; q < s.quads; ++q) {
      for (std::int64_t ky = 0; ky < s.kernel; ++ky) {
        const std::uint8_t* p = in + q * s.plane + ky * s.row;
        for (std::int64_t kx = 0; kx < s.kernel; ++kx, wg += s.wstride) {
          const __m256i blo =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + kx * 4));
          const __m256i bhi = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(p + kx * 4 + 32));
          // vpmaddubsw pairs (max |2*255*63| < 2^15) then vpmaddwd completes
          // the exact 4-byte dot product per 32-bit lane.
          for (int t = 0; t < 4; ++t) {
            const __m256i qw = _mm256_set1_epi32(wg[t]);
            lo[t] = _mm256_add_epi32(
                lo[t], _mm256_madd_epi16(_mm256_maddubs_epi16(blo, qw), ones));
            hi[t] = _mm256_add_epi32(
                hi[t], _mm256_madd_epi16(_mm256_maddubs_epi16(bhi, qw), ones));
          }
        }
      }
    }
    for (int t = 0; t < 4; ++t) {
      std::int32_t* out = acc + (r + t) * kBlockCols;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), lo[t]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8), hi[t]);
    }
  }
}

#define PARPDE_VNNI \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni")))

// Rows w[0..3] of one k-group against the block's 16 pixel quads in b.
PARPDE_VNNI inline void vnni_dot4(__m512i& a0, __m512i& a1, __m512i& a2,
                                  __m512i& a3, __m512i b,
                                  const std::int32_t* w) {
  a0 = _mm512_dpbusd_epi32(a0, b, _mm512_set1_epi32(w[0]));
  a1 = _mm512_dpbusd_epi32(a1, b, _mm512_set1_epi32(w[1]));
  a2 = _mm512_dpbusd_epi32(a2, b, _mm512_set1_epi32(w[2]));
  a3 = _mm512_dpbusd_epi32(a3, b, _mm512_set1_epi32(w[3]));
}

PARPDE_VNNI inline void vnni_store4(std::int32_t* acc, __m512i a0, __m512i a1,
                                    __m512i a2, __m512i a3) {
  _mm512_storeu_si512(acc, a0);
  _mm512_storeu_si512(acc + kBlockCols, a1);
  _mm512_storeu_si512(acc + 2 * kBlockCols, a2);
  _mm512_storeu_si512(acc + 3 * kBlockCols, a3);
}

// All 4 * RQ rows of a block stay in zmm accumulators across the whole
// k-loop: one 64-byte load feeds 4 * RQ vpdpbusd. Named accumulators, not an
// array: GCC keeps these in registers, an array it spills.
template <int RQ>
PARPDE_VNNI void kernel_vnni_rows(const std::uint8_t* in, const KernelShape& s,
                                  const std::int32_t* w, std::int32_t* acc) {
  __m512i a0 = _mm512_setzero_si512(), a1 = a0, a2 = a0, a3 = a0;
  __m512i a4 = a0, a5 = a0, a6 = a0, a7 = a0;
  __m512i a8 = a0, a9 = a0, a10 = a0, a11 = a0;
  __m512i a12 = a0, a13 = a0, a14 = a0, a15 = a0;
  for (std::int64_t q = 0; q < s.quads; ++q) {
    for (std::int64_t ky = 0; ky < s.kernel; ++ky) {
      const std::uint8_t* p = in + q * s.plane + ky * s.row;
      for (std::int64_t kx = 0; kx < s.kernel; ++kx, w += s.wstride) {
        const __m512i b = _mm512_loadu_si512(p + kx * 4);
        vnni_dot4(a0, a1, a2, a3, b, w);
        if constexpr (RQ > 1) vnni_dot4(a4, a5, a6, a7, b, w + 4);
        if constexpr (RQ > 2) vnni_dot4(a8, a9, a10, a11, b, w + 8);
        if constexpr (RQ > 3) vnni_dot4(a12, a13, a14, a15, b, w + 12);
      }
    }
  }
  vnni_store4(acc, a0, a1, a2, a3);
  if constexpr (RQ > 1) vnni_store4(acc + 4 * kBlockCols, a4, a5, a6, a7);
  if constexpr (RQ > 2) vnni_store4(acc + 8 * kBlockCols, a8, a9, a10, a11);
  if constexpr (RQ > 3) vnni_store4(acc + 12 * kBlockCols, a12, a13, a14, a15);
}

PARPDE_VNNI void kernel_vnni(const std::uint8_t* in, const KernelShape& s,
                             const std::int32_t* w, std::int64_t rows,
                             std::int32_t* acc) {
  switch (rows / 4) {
    case 1:
      kernel_vnni_rows<1>(in, s, w, acc);
      break;
    case 2:
      kernel_vnni_rows<2>(in, s, w, acc);
      break;
    case 3:
      kernel_vnni_rows<3>(in, s, w, acc);
      break;
    default:
      kernel_vnni_rows<4>(in, s, w, acc);
      break;
  }
}

#endif  // PARPDE_INT8_X86

struct KernelEntry {
  const char* name;
  KernelFn fn;
};

// Kernels this host can run, fastest first. Explicit dispatch through a
// function pointer (no IFUNC), so the sanitizer builds that disable
// PARPDE_TARGET_CLONES stay clean here too.
std::vector<KernelEntry> host_kernels() {
  std::vector<KernelEntry> kernels;
#if defined(PARPDE_INT8_X86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512vnni") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    kernels.push_back({"vnni", kernel_vnni});
  }
  if (__builtin_cpu_supports("avx2")) kernels.push_back({"avx2", kernel_avx2});
#endif
  kernels.push_back({"scalar", kernel_scalar});
  return kernels;
}

std::atomic<KernelFn> g_kernel{host_kernels().front().fn};

// --- fused dequant epilogue -------------------------------------------------

// Compiled exactly once (no target clones, no contraction): the int32 ->
// float conversion, scale, bias and activation use one fixed instruction
// sequence regardless of which int8 kernel produced the accumulators — a
// prerequisite for the backend's bit-determinism guarantee. On x86 the
// sequence is hand-written SSE2 and EVERY element goes through the same
// 4-wide ops — edge blocks compute full vectors and keep only the valid
// lanes — so results cannot depend on where a tail begins.
//
// The block's destination: fp32 rows of y, or the next layer's quads.
struct BlockOut {
  float* y = nullptr;  // this sample's [cout][plane] output, or nullptr
  std::int64_t plane = 0;
  std::int64_t j0 = 0;  // first pixel of the block in the output plane
  std::uint8_t* q = nullptr;  // next layer's quad at the block's first pixel
  std::int64_t qplane = 0;    // bytes between the next layer's quad planes
  float next_inv_sx = 1.0f;
};

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

// Dequantized, biased and activated values of channel c, pixels j..j+3.
inline __m128 epilogue4(const QLayer& l, const std::int32_t* arow,
                        std::int64_t c, std::int64_t j) {
  const __m128i corr = _mm_set1_epi32(l.corr[static_cast<std::size_t>(c)]);
  const __m128 ds = _mm_set1_ps(l.dscale[static_cast<std::size_t>(c)]);
  const __m128 b = _mm_set1_ps(l.bias != nullptr ? l.bias[c] : 0.0f);
  const __m128i a =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(arow + j));
  const __m128 v = _mm_add_ps(
      _mm_mul_ps(_mm_cvtepi32_ps(_mm_sub_epi32(a, corr)), ds), b);
  switch (l.fused) {
    case Fused::kNone:
      return v;
    case Fused::kLeakyReLU: {
      const __m128 pos = _mm_cmpge_ps(v, _mm_setzero_ps());
      return _mm_or_ps(_mm_and_ps(pos, v),
                       _mm_andnot_ps(pos, _mm_mul_ps(_mm_set1_ps(l.slope), v)));
    }
    case Fused::kReLU:
      return _mm_and_ps(_mm_cmpgt_ps(v, _mm_setzero_ps()), v);
    case Fused::kTanh: {
      alignas(16) float tmp[4];
      _mm_store_ps(tmp, v);
      for (float& t : tmp) t = std::tanh(t);
      return _mm_load_ps(tmp);
    }
  }
  return v;
}

// Rows r0..r0+rows of one block (acc holds them from row r0 on), `jn` valid
// pixels. Returns the clipped count of the quads it wrote.
std::uint64_t epilogue(const std::int32_t* acc, const QLayer& l,
                       std::int64_t r0, std::int64_t rows, std::int64_t jn,
                       const BlockOut& out) {
  const std::int64_t c1 = std::min(r0 + rows, l.cout);
  if (out.y != nullptr) {
    for (std::int64_t c = r0; c < c1; ++c) {
      const std::int32_t* arow = acc + (c - r0) * kBlockCols;
      float* yrow = out.y + c * out.plane + out.j0;
      for (std::int64_t j = 0; j < jn; j += 4) {
        store_lanes(yrow + j, epilogue4(l, arow, c, j), jn - j);
      }
    }
    return 0;
  }
  const __m128 inv = _mm_set1_ps(out.next_inv_sx);
  std::uint64_t clipped = 0;
  for (std::int64_t c0 = r0; c0 < c1; c0 += 4) {
    const std::int64_t nch = std::min<std::int64_t>(4, c1 - c0);
    std::uint8_t* q = out.q + (c0 / 4) * out.qplane;
    const auto value = [&](std::int64_t t, std::int64_t j) {
      return t < nch ? epilogue4(l, acc + (c0 + t - r0) * kBlockCols, c0 + t, j)
                     : _mm_setzero_ps();
    };
    for (std::int64_t j = 0; j < jn; j += 4) {
      clipped += store_quads4(value(0, j), value(1, j), value(2, j),
                              value(3, j), nch, inv, jn - j, q + j * 4);
    }
  }
  return clipped;
}

#else  // !PARPDE_INT8_X86

inline float epilogue1(const QLayer& l, std::int32_t a, std::int64_t c) {
  const float v = static_cast<float>(a - l.corr[static_cast<std::size_t>(c)]) *
                      l.dscale[static_cast<std::size_t>(c)] +
                  (l.bias != nullptr ? l.bias[c] : 0.0f);
  switch (l.fused) {
    case Fused::kNone:
      return v;
    case Fused::kLeakyReLU:
      return v >= 0.0f ? v : l.slope * v;
    case Fused::kReLU:
      return v > 0.0f ? v : 0.0f;
    case Fused::kTanh:
      return std::tanh(v);
  }
  return v;
}

std::uint64_t epilogue(const std::int32_t* acc, const QLayer& l,
                       std::int64_t r0, std::int64_t rows, std::int64_t jn,
                       const BlockOut& out) {
  const std::int64_t c1 = std::min(r0 + rows, l.cout);
  std::uint64_t clipped = 0;
  for (std::int64_t c = r0; c < r0 + rows; ++c) {
    const std::int32_t* arow = acc + (c - r0) * kBlockCols;
    for (std::int64_t j = 0; j < jn; ++j) {
      if (out.y != nullptr) {
        if (c < c1) {
          out.y[c * out.plane + out.j0 + j] = epilogue1(l, arow[j], c);
        }
        continue;
      }
      out.q[(c / 4) * out.qplane + j * 4 + c % 4] =
          c < c1 ? quantize_byte(epilogue1(l, arow[j], c), out.next_inv_sx,
                                 clipped)
                 : std::uint8_t{128};
    }
  }
  return clipped;
}

#endif  // PARPDE_INT8_X86

// --- the backend ------------------------------------------------------------

class QuantizedInt8Backend final : public KernelBackend {
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

    // 1. Input quads: the ones the previous layer's epilogue wrote when it
    //    chains into this call, otherwise the fp32 input quantized at this
    //    layer's fixed calibrated scale (ring and slack included).
    const QuadShape in_shape = input_shape(l, h, w);
    int in_buf = c.take_chain(layer, x, batch, h, w);
    const std::uint8_t* in = nullptr;
    if (in_buf >= 0) {
      in = c.quads(in_buf, in_shape, batch);
    } else {
      in_buf = 0;
      std::uint8_t* q = c.quads(in_buf, in_shape, batch);
      fill_ring(q, in_shape, batch, l.pad);
      util::WallTimer timer;
      quantize_quads(x, batch, l, h, w, in_shape, q);
      quant_s.add(timer.seconds());
      in = q;
    }

    // 2. Output: fp32 rows of y, or the next layer's quads (its ring set
    //    here, its interior by the blocks' epilogues).
    QuadShape out_shape;
    std::uint8_t* outq = nullptr;
    std::int64_t next_pad = 0;
    float next_inv_sx = 1.0f;
    if (l.feeds_next) {
      const QLayer& next = c.layer(layer + 1);
      next_pad = next.pad;
      next_inv_sx = next.inv_sx;
      out_shape = input_shape(next, oh, ow);
      outq = c.quads(1 - in_buf, out_shape, batch);
      fill_ring(outq, out_shape, batch, next_pad);
    }

    // 3. Direct conv + fused epilogue, parallel over 16-pixel blocks of one
    //    output row of one sample. Epilogue timing is trace-mode only:
    //    per-block stopwatches are too hot for the always-on path (see
    //    docs/observability.md).
    const KernelShape ks{l.quads, l.kernel, in_shape.plane(), in_shape.wp * 4,
                         l.cpad};
    const KernelFn kernel = g_kernel.load();
    const std::int64_t nxb = (ow + kBlockCols - 1) / kBlockCols;
    const std::int64_t nblocks = oh * nxb;
    const bool trace = telemetry::enabled();
    util::ThreadPool::global().parallel_for(
        batch * nblocks, 8, [&](std::int64_t b0, std::int64_t b1) {
          alignas(64) std::int32_t acc[kMaxRows * kBlockCols] = {};
          std::uint64_t clipped = 0;
          double dq = 0.0;
          for (std::int64_t t = b0; t < b1; ++t) {
            const std::int64_t s = t / nblocks;
            const std::int64_t blk = t % nblocks;
            const std::int64_t oy = blk / nxb;
            const std::int64_t x0 = (blk % nxb) * kBlockCols;
            const std::int64_t jn = std::min(kBlockCols, ow - x0);
            const std::uint8_t* corner =
                in + s * in_shape.sample() + (oy * in_shape.wp + x0) * 4;
            BlockOut out;
            if (outq != nullptr) {
              out.q = outq + s * out_shape.sample() +
                      ((oy + next_pad) * out_shape.wp + x0 + next_pad) * 4;
              out.qplane = out_shape.plane();
              out.next_inv_sx = next_inv_sx;
            } else {
              out.y = y + s * l.cout * plane;
              out.plane = plane;
              out.j0 = oy * ow + x0;
            }
            for (std::int64_t r0 = 0; r0 < l.cpad; r0 += kMaxRows) {
              const std::int64_t rows = std::min(kMaxRows, l.cpad - r0);
              kernel(corner, ks, l.wq.data() + r0, rows, acc);
              if (trace) {
                util::WallTimer timer;
                clipped += epilogue(acc, l, r0, rows, jn, out);
                dq += timer.seconds();
              } else {
                clipped += epilogue(acc, l, r0, rows, jn, out);
              }
            }
          }
          if (clipped != 0) saturated_counter().add(clipped);
          if (trace && dq > 0.0) dequant_s.add(dq);
        });

    if (l.feeds_next) c.chain(layer, y, 1 - in_buf, batch, oh, ow);
  }
};

}  // namespace

#if defined(PARPDE_INT8_PORTABLE)

const KernelBackend& detail::portable_quantized_int8() {
  static const QuantizedInt8Backend backend;
  return backend;
}

#else

const KernelBackend& quantized_int8() {
  static const QuantizedInt8Backend backend;
  return backend;
}

std::vector<std::string> detail::int8_kernels() {
  std::vector<std::string> names;
  for (const KernelEntry& k : host_kernels()) names.emplace_back(k.name);
  return names;
}

void detail::use_int8_kernel(const std::string& name) {
  for (const KernelEntry& k : host_kernels()) {
    if (name == k.name) {
      g_kernel.store(k.fn);
      return;
    }
  }
  throw std::invalid_argument("use_int8_kernel: this host cannot run '" +
                              name + "'");
}

#endif  // PARPDE_INT8_PORTABLE

}  // namespace parpde::backend
