// Functional conv primitives: consistency with the Conv2d layer, adjoint
// identities, and bit-identity of the grouped batched path with a
// whole-batch lowering.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_ops.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/aligned.hpp"
#include "util/random.hpp"
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

TEST(ConvOps, ForwardMatchesConv2dLayer) {
  Conv2d layer(3, 5, 3, 1);
  util::Rng rng(1);
  layer.init(rng);
  const Tensor x = random_tensor({3, 7, 9}, 2);
  const Tensor batched = x.reshaped({1, 3, 7, 9});
  const Tensor expected = layer.forward(batched);

  Tensor y;
  util::AlignedVector<float> col;
  conv2d_forward(x, layer.weight(), layer.bias(), 1, y, col);
  expect_tensors_close(y.reshaped({1, 5, 7, 9}), expected, 1e-6, 1e-5);
}

TEST(ConvOps, ForwardWithoutBias) {
  const Tensor x = random_tensor({2, 5, 5}, 3);
  const Tensor w = random_tensor({4, 2, 3, 3}, 4);
  Tensor y1, y2;
  util::AlignedVector<float> col;
  Tensor zero_bias({4});
  conv2d_forward(x, w, zero_bias, 1, y1, col);
  conv2d_forward(x, w, Tensor{}, 1, y2, col);
  expect_tensors_close(y1, y2, 0.0, 0.0);
}

TEST(ConvOps, BackwardDataMatchesConv2dLayer) {
  Conv2d layer(2, 3, 3, 1);
  util::Rng rng(5);
  layer.init(rng);
  const Tensor x = random_tensor({2, 6, 6}, 6);
  const Tensor dy = random_tensor({3, 6, 6}, 7);

  layer.forward(x.reshaped({1, 2, 6, 6}));
  const Tensor expected = layer.backward(dy.reshaped({1, 3, 6, 6}));

  Tensor dx({2, 6, 6});
  util::AlignedVector<float> col;
  conv2d_backward_data(dy, layer.weight(), 1, dx, col);
  expect_tensors_close(dx.reshaped({1, 2, 6, 6}), expected, 1e-5, 1e-4);
}

TEST(ConvOps, BackwardWeightsMatchesConv2dLayer) {
  Conv2d layer(2, 3, 3, 1);
  util::Rng rng(8);
  layer.init(rng);
  const Tensor x = random_tensor({2, 6, 6}, 9);
  const Tensor dy = random_tensor({3, 6, 6}, 10);

  layer.zero_grad();
  layer.forward(x.reshaped({1, 2, 6, 6}));
  layer.backward(dy.reshaped({1, 3, 6, 6}));

  Tensor dw({3, 2, 3, 3});
  Tensor db({3});
  util::AlignedVector<float> col;
  conv2d_backward_weights(x, dy, 1, dw, db, col);
  const auto params = layer.parameters();
  expect_tensors_close(dw, *params[0].grad, 1e-5, 1e-4);
  expect_tensors_close(db, *params[1].grad, 1e-5, 1e-4);
}

TEST(ConvOps, BackwardWeightsAccumulates) {
  const Tensor x = random_tensor({1, 4, 4}, 11);
  const Tensor dy = random_tensor({2, 4, 4}, 12);
  Tensor dw1({2, 1, 3, 3}), db1({2});
  Tensor dw2({2, 1, 3, 3}), db2({2});
  util::AlignedVector<float> col;
  conv2d_backward_weights(x, dy, 1, dw1, db1, col);
  conv2d_backward_weights(x, dy, 1, dw2, db2, col);
  conv2d_backward_weights(x, dy, 1, dw2, db2, col);  // dw2 = 2 * dw1 now? no:
  // dw2 accumulated twice, dw1 once.
  for (std::int64_t i = 0; i < dw1.size(); ++i) {
    EXPECT_NEAR(dw2[i], 2.0f * dw1[i], 1e-5);
  }
}

TEST(ConvOps, OneByOneConvIsChannelMix) {
  // 1x1 conv with identity-like weights passes channels through.
  const Tensor x = random_tensor({2, 3, 3}, 13);
  Tensor w({2, 2, 1, 1});
  w.fill(0.0f);
  w.at(0, 0, 0, 0) = 1.0f;
  w.at(1, 1, 0, 0) = 1.0f;
  Tensor y;
  util::AlignedVector<float> col;
  conv2d_forward(x, w, Tensor{}, 0, y, col);
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

TEST(ConvOps, RejectsBadShapes) {
  Tensor y;
  util::AlignedVector<float> col;
  EXPECT_THROW(conv2d_forward(Tensor({2, 4, 4}), Tensor({3, 1, 3, 3}), Tensor{},
                              1, y, col),
               std::invalid_argument);
  Tensor dx({2, 4, 4});
  EXPECT_THROW(conv2d_backward_data(Tensor({5, 4, 4}), Tensor({3, 2, 3, 3}), 1,
                                    dx, col),
               std::invalid_argument);
}

}  // namespace
}  // namespace parpde::nn
