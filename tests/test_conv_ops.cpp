// Functional conv primitives: basic identities, bit-identity of the grouped
// batched path with a whole-batch lowering, bit-identity of the direct
// forward, the direct data gradient and the im2row weight gradient with the
// GEMM lowerings they replace, ConvLSTM's pinned bits, and an
// allocation-free steady-state forward and backward.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "helpers.hpp"
#include "nn/conv_lstm.hpp"
#include "nn/conv_ops.hpp"
#include "tensor/gemm.hpp"
#include "util/crc32.hpp"
#include "util/random.hpp"
#include "util/target_clones.hpp"
#include "util/thread_pool.hpp"

namespace parpde::nn {
namespace {

using parpde::testing::expect_tensors_close;

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  util::Rng rng(seed);
  rng.fill_uniform(t.values(), -1.0f, 1.0f);
  return t;
}

TEST(ConvOps, ForwardWithoutBias) {
  const Tensor x = random_tensor({1, 2, 5, 5}, 3);
  const Tensor w = random_tensor({4, 2, 3, 3}, 4);
  Tensor y1, y2;
  Conv2dWorkspace ws;
  Tensor zero_bias({4});
  conv2d_forward_batched(x, w, zero_bias, 1, y1, ws);
  conv2d_forward_batched(x, w, Tensor{}, 1, y2, ws);
  expect_tensors_close(y1, y2, 0.0, 0.0);
}

TEST(ConvOps, BackwardWeightsAccumulates) {
  const Tensor x = random_tensor({1, 1, 4, 4}, 11);
  const Tensor dy = random_tensor({1, 2, 4, 4}, 12);
  Tensor dw1({2, 1, 3, 3}), db1({2});
  Tensor dw2({2, 1, 3, 3}), db2({2});
  Conv2dWorkspace ws;
  conv2d_backward_weights_batched(x, dy, 1, dw1, db1, ws);
  conv2d_backward_weights_batched(x, dy, 1, dw2, db2, ws);
  conv2d_backward_weights_batched(x, dy, 1, dw2, db2, ws);
  // dw2 accumulated twice, dw1 once.
  for (std::int64_t i = 0; i < dw1.size(); ++i) {
    EXPECT_NEAR(dw2[i], 2.0f * dw1[i], 1e-5);
  }
}

TEST(ConvOps, OneByOneConvIsChannelMix) {
  // 1x1 conv with identity-like weights passes channels through.
  const Tensor x = random_tensor({1, 2, 3, 3}, 13);
  Tensor w({2, 2, 1, 1});
  w.fill(0.0f);
  w.at(0, 0, 0, 0) = 1.0f;
  w.at(1, 1, 0, 0) = 1.0f;
  Tensor y;
  Conv2dWorkspace ws;
  conv2d_forward_batched(x, w, Tensor{}, 0, y, ws);
  expect_tensors_close(y, x, 1e-7, 1e-6);
}

// --- Sample grouping is bit-neutral -----------------------------------------
//
// The oracle lowers the whole batch at once from the public primitives: one
// [Cin*k*k x N*OH*OW] column matrix, one GEMM per operand, and db summed over
// the gathered channel-major dY rows. conv2d_{forward,backward}_batched lower
// in conv2d_batch_group sample groups and must reproduce every bit.

struct BatchResult {
  Tensor y, dx, dw, db;
};

BatchResult whole_batch_oracle(const Tensor& x, const Tensor& w,
                               const Tensor& b, const Tensor& dy,
                               std::int64_t pad, const Tensor& dw0,
                               const Tensor& db0) {
  const std::int64_t n = x.dim(0), cout = w.dim(0);
  const ConvGeometry g{x.dim(1), x.dim(2), x.dim(3), w.dim(2), pad};
  const std::int64_t plane = g.col_cols(), wide = n * plane;
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * wide));
  std::vector<float> wide_y(static_cast<std::size_t>(cout * wide));
  im2col_batched(x.data(), n, g, col.data());

  BatchResult r{Tensor({n, cout, g.out_height(), g.out_width()}),
                Tensor(x.shape()), dw0, db0};
  gemm(w.data(), col.data(), wide_y.data(), cout, g.col_rows(), wide);
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t c = 0; c < cout; ++c) {
      for (std::int64_t i = 0; i < plane; ++i) {
        r.y.data()[(s * cout + c) * plane + i] =
            wide_y[static_cast<std::size_t>(c * wide + s * plane + i)] + b[c];
      }
    }
  }

  std::vector<float> wide_dy(wide_y.size());
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t c = 0; c < cout; ++c) {
      for (std::int64_t i = 0; i < plane; ++i) {
        wide_dy[static_cast<std::size_t>(c * wide + s * plane + i)] =
            dy.data()[(s * cout + c) * plane + i];
      }
    }
  }
  for (std::int64_t c = 0; c < cout; ++c) {
    float acc = 0.0f;
    for (std::int64_t i = 0; i < wide; ++i) {
      acc += wide_dy[static_cast<std::size_t>(c * wide + i)];
    }
    r.db[c] += acc;
  }
  gemm_bt_acc(wide_dy.data(), col.data(), r.dw.data(), cout, wide,
              g.col_rows());
  std::vector<float> dcol(col.size());
  gemm_at(w.data(), wide_dy.data(), dcol.data(), g.col_rows(), cout, wide);
  r.dx.fill(0.0f);
  col2im_batched(dcol.data(), n, g, r.dx.data());
  return r;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (std::int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::memcmp(got.data() + i, want.data() + i, sizeof(float)), 0)
        << what << " differs at index " << i << ": " << got[i] << " vs "
        << want[i];
  }
}

struct GroupCase {
  std::int64_t batch, cin, cout, size, kernel, pad;
};

void check_grouping_bit_neutral(const GroupCase& c, int workers) {
  SCOPED_TRACE("batch " + std::to_string(c.batch) + ", " +
               std::to_string(c.cin) + "->" + std::to_string(c.cout) + " at " +
               std::to_string(c.size) + ", " + std::to_string(workers) +
               " workers");
  const std::uint64_t seed = static_cast<std::uint64_t>(c.cin * 100 + c.size);
  const Tensor x = random_tensor({c.batch, c.cin, c.size, c.size}, seed);
  const Tensor w = random_tensor({c.cout, c.cin, c.kernel, c.kernel}, seed + 1);
  const Tensor b = random_tensor({c.cout}, seed + 2);
  const std::int64_t out = c.size + 2 * c.pad - c.kernel + 1;
  const Tensor dy = random_tensor({c.batch, c.cout, out, out}, seed + 3);
  // Non-zero starting gradients: the batched backward accumulates.
  const Tensor dw0 = random_tensor(w.shape(), seed + 4);
  const Tensor db0 = random_tensor(b.shape(), seed + 5);

  util::ThreadPool::configure_global(workers);
  const BatchResult want = whole_batch_oracle(x, w, b, dy, c.pad, dw0, db0);
  Conv2dWorkspace ws;
  BatchResult got{Tensor{}, Tensor{}, dw0, db0};
  conv2d_forward_batched(x, w, b, c.pad, got.y, ws);
  conv2d_backward_batched(x, dy, w, c.pad, got.dx, got.dw, got.db, ws);
  util::ThreadPool::configure_global(0);

  expect_bitwise_equal(got.y, want.y, "y");
  expect_bitwise_equal(got.dx, want.dx, "dx");
  expect_bitwise_equal(got.dw, want.dw, "dW");
  expect_bitwise_equal(got.db, want.db, "db");
}

// The four Table-I layers (4->6->16->6->4, 5x5, unpadded) on a halo-padded
// 32x32 tile (48x48 input) at batch 16 — the Fig. 4 training geometry.
TEST(ConvOps, GroupedTableILayersMatchWholeBatchBitwise) {
  const GroupCase layers[] = {
      {16, 4, 6, 48, 5, 0},
      {16, 6, 16, 44, 5, 0},
      {16, 16, 6, 40, 5, 0},
      {16, 6, 4, 36, 5, 0},
  };
  for (const GroupCase& c : layers) {
    const ConvGeometry g{c.cin, c.size, c.size, c.kernel, c.pad};
    ASSERT_LT(conv2d_batch_group(g, c.batch), c.batch)
        << "the batch must really split into groups";
    for (int workers : {0, 3}) check_grouping_bit_neutral(c, workers);
  }
}

// Layer 1 groups two samples (its 44x44 plane is 16 mod 32); a batch of 7
// leaves a one-sample last group.
TEST(ConvOps, GroupedRaggedLastGroupMatchesWholeBatchBitwise) {
  const GroupCase c{7, 4, 6, 48, 5, 0};
  const ConvGeometry g{c.cin, c.size, c.size, c.kernel, c.pad};
  const std::int64_t group = conv2d_batch_group(g, c.batch);
  ASSERT_GT(group, 1);
  ASSERT_NE(c.batch % group, 0);
  for (int workers : {0, 3}) check_grouping_bit_neutral(c, workers);
}

// A 37x37 output plane is odd, so a group must hold 32 samples to end on a
// k-block boundary; a single sample overflows the budget, and the whole
// batch becomes one group.
TEST(ConvOps, OddPlaneAlignmentKeepsWholeBatch) {
  const GroupCase c{5, 16, 6, 41, 5, 0};
  const ConvGeometry g{c.cin, c.size, c.size, c.kernel, c.pad};
  ASSERT_EQ(conv2d_batch_group(g, c.batch), c.batch);
  EXPECT_EQ(conv2d_batch_group(g, 40), kGemmKBlock);
  for (int workers : {0, 3}) check_grouping_bit_neutral(c, workers);
}

// --- Direct forward is bit-neutral -------------------------------------------
//
// The oracle is the lowering the kernel replaced: y = act(W * im2col(x) + b)
// through the blocked gemm on the whole batch's wide column matrix, then the
// per-element epilogue (v = acc + b, +0 without a bias; the activation; y is
// the GEMM output itself with neither).

float reference_epilogue(float acc, const float* bias, FusedActivation act,
                         float slope) {
  if (bias == nullptr && act == FusedActivation::kNone) return acc;
  const float v = acc + (bias != nullptr ? *bias : 0.0f);
  switch (act) {
    case FusedActivation::kNone:
      return v;
    case FusedActivation::kLeakyReLU:
      return v >= 0.0f ? v : slope * v;
    case FusedActivation::kReLU:
      return v > 0.0f ? v : 0.0f;
    case FusedActivation::kTanh:
      return std::tanh(v);
  }
  return v;
}

Tensor im2col_forward(const Tensor& x, const Tensor& w, const float* bias,
                      std::int64_t pad, FusedActivation act, float slope) {
  const std::int64_t n = x.dim(0), cout = w.dim(0);
  const ConvGeometry g{x.dim(1), x.dim(2), x.dim(3), w.dim(2), pad};
  const std::int64_t plane = g.col_cols(), wide = n * plane;
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * wide));
  std::vector<float> wide_y(static_cast<std::size_t>(cout * wide));
  im2col_batched(x.data(), n, g, col.data());
  gemm(w.data(), col.data(), wide_y.data(), cout, g.col_rows(), wide);
  Tensor y({n, cout, g.out_height(), g.out_width()});
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t c = 0; c < cout; ++c) {
      for (std::int64_t i = 0; i < plane; ++i) {
        y.data()[(s * cout + c) * plane + i] = reference_epilogue(
            wide_y[static_cast<std::size_t>(c * wide + s * plane + i)],
            bias != nullptr ? bias + c : nullptr, act, slope);
      }
    }
  }
  return y;
}

// Bitwise equality, except that a NaN matches any NaN: the non-finite
// outputs must sit at exactly the oracle's positions.
void expect_same_bits_or_both_nan(const float* got, const float* want,
                                  std::int64_t count, const char* what) {
  for (std::int64_t i = 0; i < count; ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    ASSERT_EQ(std::memcmp(got + i, want + i, sizeof(float)), 0)
        << what << " differs at index " << i << ": " << got[i] << " vs "
        << want[i];
  }
}

struct ForwardCase {
  std::int64_t cin, cout, kernel, pad, height, width;
  FusedActivation act;
  bool bias, non_finite;
};

void check_direct_forward(const ForwardCase& c) {
  const std::int64_t n = 3;
  SCOPED_TRACE(std::to_string(c.cin) + "->" + std::to_string(c.cout) + " k" +
               std::to_string(c.kernel) + " pad " + std::to_string(c.pad) +
               " " + std::to_string(c.height) + "x" + std::to_string(c.width) +
               " act " +
               std::to_string(static_cast<int>(c.act)) +
               (c.bias ? "" : " no bias") + (c.non_finite ? " NaN/Inf" : ""));
  const auto seed = static_cast<std::uint64_t>(
      c.cin * 1000 + c.cout * 100 + c.kernel * 10 + c.pad);
  Tensor x = random_tensor({n, c.cin, c.height, c.width}, seed);
  Tensor w = random_tensor({c.cout, c.cin, c.kernel, c.kernel}, seed + 1);
  const Tensor b = random_tensor({c.cout}, seed + 2);
  if (c.non_finite) {
    // A NaN pixel in the last sample, and an Inf weight whose taps also
    // land on padding zeros (Inf * 0 = NaN) when pad > 0.
    x.data()[x.size() - c.width - 2] = std::nanf("");
    w.data()[w.size() / 2] = INFINITY;
  }
  const float* bias = c.bias ? b.data() : nullptr;
  const float slope = 0.01f;
  const Tensor want = im2col_forward(x, w, bias, c.pad, c.act, slope);

  const ConvGeometry g{c.cin, c.height, c.width, c.kernel, c.pad};
  Conv2dWorkspace ws;
  Tensor got(want.shape());
  conv2d_forward_batched(x.data(), n, g, w.data(), c.cout, bias, c.act, slope,
                         got.data(), ws);
  expect_same_bits_or_both_nan(got.data(), want.data(), want.size(),
                               "batch of 3");
  // A batch of one (the last sample: the one a batch stages) on the same
  // workspace, as the ConvLSTM and the single-tile plan run it.
  const std::int64_t in = x.size() / n, out = want.size() / n;
  Tensor single({1, c.cout, g.out_height(), g.out_width()});
  conv2d_forward_batched(x.data() + (n - 1) * in, 1, g, w.data(), c.cout,
                         bias, c.act, slope, single.data(), ws);
  expect_same_bits_or_both_nan(single.data(), want.data() + (n - 1) * out, out,
                               "batch of 1");
}

TEST(ConvOps, DirectForwardMatchesIm2colOracle) {
  const std::int64_t channels[] = {1, 4, 5, 6, 16, 33};
  const FusedActivation acts[] = {
      FusedActivation::kNone, FusedActivation::kLeakyReLU,
      FusedActivation::kReLU, FusedActivation::kTanh};
  const std::int64_t widths[] = {19, 23, 37};
  for (int workers : {0, 3}) {
    util::ThreadPool::configure_global(workers);
    SCOPED_TRACE(std::to_string(workers) + " workers");
    int index = 0;
    for (std::int64_t kernel : {3, 5}) {
      for (std::int64_t pad = 0; pad <= 4; ++pad) {
        for (std::int64_t cin : channels) {
          for (std::int64_t cout : channels) {
            // Every activation with and without a bias, every ragged width,
            // a NaN pixel with an Inf weight, and planes tall enough to
            // split into several lane chunks, rotated over the shapes.
            check_direct_forward({cin, cout, kernel, pad,
                                  index % 7 == 3 ? 43 : 7, widths[index % 3],
                                  acts[index % 4], index % 8 < 4,
                                  index % 5 == 0});
            if (::testing::Test::HasFatalFailure()) {
              util::ThreadPool::configure_global(0);
              return;
            }
            ++index;
          }
        }
      }
    }
  }
  util::ThreadPool::configure_global(0);
}

// --- Direct data gradient and im2row weight gradient are bit-neutral ---------
//
// The oracles are the lowerings the kernels replaced: dx = col2im(W^T * dY)
// through gemm_at, and dW += dY * im2col(x)^T through gemm_bt_acc.

// dY [n, Cout, oh, ow] with scattered +0 and -0 entries: a -0 product or
// partial must not leak a different zero sign into dx.
Tensor signed_zero_dy(const Shape& shape, std::uint64_t seed) {
  Tensor dy = random_tensor(shape, seed);
  for (std::int64_t i = 0; i < dy.size(); ++i) {
    if (i % 7 == 3) dy[i] = -0.0f;
    if (i % 11 == 5) dy[i] = 0.0f;
  }
  return dy;
}

// Channel-major [Cout x n*plane] copy of an NCHW dY.
std::vector<float> gather_channel_major(const Tensor& dy) {
  const std::int64_t n = dy.dim(0), cout = dy.dim(1);
  const std::int64_t plane = dy.dim(2) * dy.dim(3), wide = n * plane;
  std::vector<float> out(static_cast<std::size_t>(cout * wide));
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t c = 0; c < cout; ++c) {
      std::memcpy(out.data() + c * wide + s * plane,
                  dy.data() + (s * cout + c) * plane,
                  static_cast<std::size_t>(plane) * sizeof(float));
    }
  }
  return out;
}

Tensor col2im_data_grad(const Tensor& dy, const Tensor& w,
                        const ConvGeometry& g) {
  const std::int64_t n = dy.dim(0), cout = w.dim(0);
  const std::int64_t wide = n * g.col_cols();
  const std::vector<float> wide_dy = gather_channel_major(dy);
  std::vector<float> dcol(static_cast<std::size_t>(g.col_rows() * wide));
  gemm_at(w.data(), wide_dy.data(), dcol.data(), g.col_rows(), cout, wide);
  Tensor dx({n, g.in_channels, g.height, g.width});
  dx.fill(0.0f);
  col2im_batched(dcol.data(), n, g, dx.data());
  return dx;
}

struct DataCase {
  std::int64_t cin, cout, kernel, pad, height, width;
};

void check_direct_data_grad(const DataCase& c, int workers) {
  const ConvGeometry g{c.cin, c.height, c.width, c.kernel, c.pad};
  SCOPED_TRACE(std::to_string(c.cin) + "->" + std::to_string(c.cout) + " k" +
               std::to_string(c.kernel) + " pad " + std::to_string(c.pad) +
               " " + std::to_string(c.height) + "x" + std::to_string(c.width) +
               ", " + std::to_string(workers) + " workers");
  const std::int64_t n = 3;
  const auto seed = static_cast<std::uint64_t>(
      c.cin * 1000 + c.cout * 100 + c.kernel * 10 + c.pad);
  const Tensor x = random_tensor({n, c.cin, c.height, c.width}, seed);
  const Tensor w = random_tensor({c.cout, c.cin, c.kernel, c.kernel}, seed + 1);
  const Tensor dy =
      signed_zero_dy({n, c.cout, g.out_height(), g.out_width()}, seed + 2);
  const Tensor want = col2im_data_grad(dy, w, g);

  util::ThreadPool::configure_global(workers);
  Conv2dWorkspace ws;
  Tensor dx, dw(w.shape()), db({c.cout});
  conv2d_backward_batched(x, dy, w, c.pad, dx, dw, db, ws);
  // One sample at a time (the ConvLSTM path): batches of one.
  Tensor x_s({1, c.cin, c.height, c.width}), dx_single;
  Tensor dy_s({1, c.cout, g.out_height(), g.out_width()});
  Tensor dw_s(w.shape()), db_s({c.cout});
  Tensor got_single(want.shape());
  const std::int64_t in_plane = c.cin * c.height * c.width;
  const std::int64_t out_plane = c.cout * g.out_height() * g.out_width();
  for (std::int64_t s = 0; s < n; ++s) {
    std::memcpy(x_s.data(), x.data() + s * in_plane,
                static_cast<std::size_t>(in_plane) * sizeof(float));
    std::memcpy(dy_s.data(), dy.data() + s * out_plane,
                static_cast<std::size_t>(out_plane) * sizeof(float));
    conv2d_backward_batched(x_s, dy_s, w, c.pad, dx_single, dw_s, db_s, ws);
    std::memcpy(got_single.data() + s * in_plane, dx_single.data(),
                static_cast<std::size_t>(in_plane) * sizeof(float));
  }
  util::ThreadPool::configure_global(0);

  expect_bitwise_equal(dx, want, "batched dx");
  expect_bitwise_equal(got_single, want, "single-sample dx");
}

TEST(ConvOps, DirectBackwardDataMatchesCol2imOracle) {
  const std::int64_t channels[] = {1, 4, 6, 16};
  for (int workers : {0, 3}) {
    for (std::int64_t kernel : {3, 5}) {
      for (std::int64_t pad = 0; pad <= 4; ++pad) {
        for (std::int64_t cin : channels) {
          for (std::int64_t cout : channels) {
            // Widths 19 and 23 leave a ragged last 16-lane vector; the height
            // is odd so the row blocks leave a tail too.
            const std::int64_t width = (cin + cout + pad) % 2 == 0 ? 19 : 23;
            check_direct_data_grad({cin, cout, kernel, pad, 7, width}, workers);
          }
        }
      }
    }
  }
}

// More than kGemmKBlock output channels (a ConvLSTM's gate conv): each tap
// sums its Cout reduction as consecutive kGemmKBlock-deep partials.
TEST(ConvOps, DirectBackwardDataSplitsWideCoutLikeTheGemm) {
  for (int workers : {0, 3}) {
    check_direct_data_grad({6, 2 * kGemmKBlock + 8, 3, 1, 9, 21}, workers);
    check_direct_data_grad({3, kGemmKBlock + 1, 5, 2, 5, 17}, workers);
  }
}

TEST(ConvOps, Im2rowIsTheTransposeOfIm2col) {
  for (std::int64_t pad : {0, 2, 4}) {
    const ConvGeometry g{3, 9, 13, 3, pad};
    const Tensor x = random_tensor({2, 3, 9, 13}, 40 + pad);
    const std::int64_t rows = g.col_rows(), wide = 2 * g.col_cols();
    std::vector<float> col(static_cast<std::size_t>(rows * wide));
    std::vector<float> rowm(col.size());
    im2col_batched(x.data(), 2, g, col.data());
    im2row_batched(x.data(), 2, g, rowm.data());
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t p = 0; p < wide; ++p) {
        ASSERT_EQ(std::memcmp(&rowm[static_cast<std::size_t>(p * rows + r)],
                              &col[static_cast<std::size_t>(r * wide + p)],
                              sizeof(float)),
                  0)
            << "pad " << pad << " row " << r << " pixel " << p;
      }
    }
  }
}

TEST(ConvOps, Im2rowWeightGradMatchesGemmBtAcc) {
  // n * oh * ow = 3 * 9 * 11 = 297 is not a multiple of kGemmKBlock, so the
  // last k-block of the dW reduction is ragged.
  for (std::int64_t pad : {1, 2}) {
    const std::int64_t n = 3, cin = 6, cout = 4, kernel = 5;
    const ConvGeometry g{cin, 9 + 4 - 2 * pad, 11 + 4 - 2 * pad, kernel, pad};
    ASSERT_NE(n * g.col_cols() % kGemmKBlock, 0);
    SCOPED_TRACE("pad " + std::to_string(pad));
    const Tensor x = random_tensor({n, cin, g.height, g.width}, 50 + pad);
    const Tensor w = random_tensor({cout, cin, kernel, kernel}, 51);
    const Tensor dy = signed_zero_dy(
        {n, cout, g.out_height(), g.out_width()}, 52 + pad);
    const Tensor dw0 = random_tensor(w.shape(), 53);
    const Tensor db0 = random_tensor({cout}, 54);

    const std::int64_t wide = n * g.col_cols();
    std::vector<float> col(static_cast<std::size_t>(g.col_rows() * wide));
    im2col_batched(x.data(), n, g, col.data());
    const std::vector<float> wide_dy = gather_channel_major(dy);
    Tensor want = dw0;
    gemm_bt_acc(wide_dy.data(), col.data(), want.data(), cout, wide,
                g.col_rows());

    for (int workers : {0, 3}) {
      util::ThreadPool::configure_global(workers);
      Conv2dWorkspace ws;
      Tensor dw = dw0, db = db0;
      conv2d_backward_weights_batched(x, dy, pad, dw, db, ws);
      Tensor dw_full = dw0, db_full = db0, dx;
      conv2d_backward_batched(x, dy, w, pad, dx, dw_full, db_full, ws);
      util::ThreadPool::configure_global(0);
      expect_bitwise_equal(dw, want, "dW (parameters only)");
      expect_bitwise_equal(dw_full, want, "dW (full backward)");
      expect_bitwise_equal(db, db_full, "db");
    }

    // A batch of one (the ConvLSTM path): one sample, one gemm_bt_acc.
    const std::int64_t plane = g.col_cols();
    Tensor x0({1, cin, g.height, g.width});
    std::memcpy(x0.data(), x.data(),
                static_cast<std::size_t>(x0.size()) * sizeof(float));
    Tensor dy0({1, cout, g.out_height(), g.out_width()});
    std::memcpy(dy0.data(), dy.data(),
                static_cast<std::size_t>(dy0.size()) * sizeof(float));
    std::vector<float> col0(static_cast<std::size_t>(g.col_rows() * plane));
    im2col(x0.data(), g, col0.data());
    Tensor want0 = dw0;
    gemm_bt_acc(dy0.data(), col0.data(), want0.data(), cout, plane,
                g.col_rows());
    Tensor dw_single = dw0, db_single = db0;
    Conv2dWorkspace ws;
    conv2d_backward_weights_batched(x0, dy0, pad, dw_single, db_single, ws);
    expect_bitwise_equal(dw_single, want0, "single-sample dW");
  }
}

// The second and later backward calls on one workspace reuse every buffer.
// Run inline: with pool workers, a worker's first GEMM chunk sizes its
// thread-local pack buffers, and which worker claims which chunk is up to
// the scheduler, not the workspace.
TEST(ConvOps, BatchedBackwardSteadyStateAllocatesNothing) {
  const Tensor x = random_tensor({5, 6, 21, 19}, 60);
  const Tensor w = random_tensor({4, 6, 5, 5}, 61);
  const Tensor dy = random_tensor({5, 4, 17, 15}, 62);
  util::ThreadPool::configure_global(0);
  Conv2dWorkspace ws;
  Tensor dx, dw(w.shape()), db({4});
  conv2d_backward_batched(x, dy, w, 0, dx, dw, db, ws);
  parpde::testing::AllocCounter allocs;
  for (int call = 0; call < 3; ++call) {
    conv2d_backward_batched(x, dy, w, 0, dx, dw, db, ws);
    conv2d_backward_weights_batched(x, dy, 0, dw, db, ws);
  }
  EXPECT_EQ(allocs.count(), 0);
}

// conv2d_backward_reserve sizes the im2row rows for the largest group the
// backward lowers (here a group of 8 and a ragged group of 1), so the
// backward never regrows them.
TEST(ConvOps, BackwardReserveHoldsTheLargestGroup) {
  const Tensor x = random_tensor({9, 6, 30, 30}, 66);
  const Tensor dy = random_tensor({9, 4, 26, 26}, 67);
  const ConvGeometry g{6, 30, 30, 5, 0};
  ASSERT_EQ(conv2d_batch_group(g, 9), 8);
  util::ThreadPool::configure_global(0);
  Conv2dWorkspace ws;
  conv2d_backward_reserve(g, 9, ws);
  const float* rows = ws.staging.data();
  const std::size_t size = ws.staging.size();
  EXPECT_EQ(size, static_cast<std::size_t>(8 * g.col_cols() * g.col_rows()));
  Tensor dw({4, 6, 5, 5}), db({4});
  conv2d_backward_weights_batched(x, dy, 0, dw, db, ws);
  EXPECT_EQ(ws.staging.data(), rows);
  EXPECT_EQ(ws.staging.size(), size);
}

// The second and later forward calls on one workspace allocate nothing, and
// neither does the first once conv2d_forward_reserve has sized the workspace
// (the fp32 plan's contract). Unpadded and padded geometries share the
// workspace, as a ConvLSTM's convs do.
TEST(ConvOps, BatchedForwardSteadyStateAllocatesNothing) {
  const Tensor x = random_tensor({5, 6, 21, 19}, 63);
  const Tensor w = random_tensor({4, 6, 5, 5}, 64);
  const Tensor b = random_tensor({4}, 65);
  util::ThreadPool::configure_global(0);
  Tensor y0, y2;
  Conv2dWorkspace ws;
  conv2d_forward_batched(x, w, b, 0, y0, ws);
  conv2d_forward_batched(x, w, b, 2, y2, ws);
  {
    parpde::testing::AllocCounter allocs;
    for (int call = 0; call < 3; ++call) {
      conv2d_forward_batched(x, w, b, 0, y0, ws);
      conv2d_forward_batched(x, w, b, 2, y2, ws);
    }
    EXPECT_EQ(allocs.count(), 0);
  }

  const ConvGeometry g{6, 21, 19, 5, 2};
  Conv2dWorkspace reserved;
  conv2d_forward_reserve(g, 4, 5, reserved);
  parpde::testing::AllocCounter allocs;
  for (std::int64_t n : {5, 1, 3}) {
    conv2d_forward_batched(x.data(), n, g, w.data(), 4, b.data(),
                           FusedActivation::kLeakyReLU, 0.01f, y2.data(),
                           reserved);
  }
  EXPECT_EQ(allocs.count(), 0);
}

TEST(ConvOps, RejectsBadShapes) {
  Tensor y;
  Conv2dWorkspace ws;
  EXPECT_THROW(conv2d_forward_batched(Tensor({1, 2, 4, 4}),
                                      Tensor({3, 1, 3, 3}), Tensor{}, 1, y, ws),
               std::invalid_argument);
  Tensor dx, dw({3, 2, 3, 3}), db({3});
  EXPECT_THROW(conv2d_backward_batched(Tensor({1, 2, 4, 4}),
                                       Tensor({1, 5, 4, 4}),
                                       Tensor({3, 2, 3, 3}), 1, dx, dw, db, ws),
               std::invalid_argument);
}

// --- ConvLSTM runs the batched lowering bit for bit --------------------------
//
// ConvLSTM steps its convs one sample at a time through the batched entry
// points. The CRC-32s below were recorded while it still had dedicated
// single-sample kernels, so they pin that sharing the batched lowering left
// every bit of the forward output and of every gradient unchanged.
// 4 * 9 = 36 gate channels exceed kGemmKBlock, so the data gradient's Cout
// reduction splits into blocks. They are the bits of the x86-64-v3/v4
// kernel clones, which fuse each multiply-add; a build without clones
// (the sanitizer builds) or an older host rounds differently
// (util/target_clones.hpp), so the check runs only on those clones.
bool kernels_fuse_multiply_add() {
#if PARPDE_HAS_TARGET_CLONES
  return __builtin_cpu_supports("x86-64-v3");
#else
  return false;
#endif
}

std::uint32_t bits_crc(const Tensor& t) {
  return util::crc32(t.data(),
                     static_cast<std::size_t>(t.size()) * sizeof(float));
}

TEST(ConvOps, ConvLstmForwardAndGradientsPinnedAtFixedSeed) {
  if (!kernels_fuse_multiply_add()) {
    GTEST_SKIP() << "pinned bits are those of the x86-64-v3/v4 kernel clones";
  }
  const std::uint32_t want_y = 4020211364u, want_dx = 530144273u;
  const std::uint32_t want_grads[] = {3257498164u, 2162062029u, 3840555862u,
                                      875988552u, 4066603453u};
  for (int workers : {0, 3}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    util::ThreadPool::configure_global(workers);
    ConvLSTM cell(3, 9, 2, 3);
    util::Rng rng(71);
    cell.init(rng);
    const Tensor x = random_tensor({4, 3, 7, 6}, 72);
    const Tensor y = cell.forward(x);
    const Tensor dy = random_tensor(y.shape(), 73);
    cell.zero_grad();
    const Tensor dx = cell.backward(dy);
    util::ThreadPool::configure_global(0);
    EXPECT_EQ(bits_crc(y), want_y) << "forward output";
    EXPECT_EQ(bits_crc(dx), want_dx) << "input gradient";
    const std::vector<ParamRef> params = cell.parameters();
    ASSERT_EQ(params.size(), std::size(want_grads));
    for (std::size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(bits_crc(*params[i].grad), want_grads[i]) << params[i].name;
    }
  }
}

}  // namespace
}  // namespace parpde::nn
