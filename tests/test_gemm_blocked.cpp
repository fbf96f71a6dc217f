// Blocked GEMM vs. the naive reference loops across the four kernel variants
// (including sizes that are not multiples of the micro-tile or cache blocks),
// plus the bit-determinism contract: identical results — down to identical
// epoch losses of a full training run — at any thread-pool size.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/trainer.hpp"
#include "tensor/gemm.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace parpde {
namespace {

std::vector<float> random_vec(std::int64_t size, std::uint64_t seed) {
  std::vector<float> v(static_cast<std::size_t>(size));
  util::Rng rng(seed);
  rng.fill_uniform(v, -1.0f, 1.0f);
  return v;
}

// Blocked and naive kernels sum k in different orders, so compare with a
// tolerance scaled by the reduction depth.
void expect_close(const std::vector<float>& got, const std::vector<float>& want,
                  std::int64_t k) {
  ASSERT_EQ(got.size(), want.size());
  const double tol = 1e-5 * static_cast<double>(k);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol + 1e-4 * std::abs(want[i]))
        << "at index " << i;
  }
}

struct Dims {
  std::int64_t m, k, n;
};

// Micro-tile is 6 x 16, cache blocks 120 x 32 x 512: cover below / at / past
// each boundary plus ragged remainders on every dimension.
const Dims kDims[] = {
    {1, 1, 1},    {3, 5, 7},      {6, 32, 16},   {7, 33, 17},
    {13, 31, 47}, {16, 150, 256}, {121, 65, 40}, {24, 40, 530},
};

TEST(GemmBlocked, MatchesNaive) {
  for (const auto& d : kDims) {
    const auto a = random_vec(d.m * d.k, 11 + d.m);
    const auto b = random_vec(d.k * d.n, 23 + d.n);
    std::vector<float> got(static_cast<std::size_t>(d.m * d.n));
    std::vector<float> want(got.size());
    gemm(a.data(), b.data(), got.data(), d.m, d.k, d.n);
    gemm_naive(a.data(), b.data(), want.data(), d.m, d.k, d.n);
    expect_close(got, want, d.k);
  }
}

TEST(GemmBlocked, AccumulateMatchesNaive) {
  for (const auto& d : kDims) {
    const auto a = random_vec(d.m * d.k, 31 + d.m);
    const auto b = random_vec(d.k * d.n, 37 + d.n);
    auto got = random_vec(d.m * d.n, 41 + d.k);  // existing C contents
    auto want = got;
    gemm_acc(a.data(), b.data(), got.data(), d.m, d.k, d.n);
    gemm_naive_acc(a.data(), b.data(), want.data(), d.m, d.k, d.n);
    expect_close(got, want, d.k);
  }
}

TEST(GemmBlocked, TransposedAMatchesNaive) {
  for (const auto& d : kDims) {
    const auto a = random_vec(d.k * d.m, 43 + d.m);  // stored [k x m]
    const auto b = random_vec(d.k * d.n, 47 + d.n);
    std::vector<float> got(static_cast<std::size_t>(d.m * d.n));
    std::vector<float> want(got.size());
    gemm_at(a.data(), b.data(), got.data(), d.m, d.k, d.n);
    gemm_naive_at(a.data(), b.data(), want.data(), d.m, d.k, d.n);
    expect_close(got, want, d.k);
  }
}

TEST(GemmBlocked, TransposedBAccumulateMatchesNaive) {
  for (const auto& d : kDims) {
    const auto a = random_vec(d.m * d.k, 53 + d.m);
    const auto b = random_vec(d.n * d.k, 59 + d.n);  // stored [n x k]
    auto got = random_vec(d.m * d.n, 61 + d.k);
    auto want = got;
    gemm_bt_acc(a.data(), b.data(), got.data(), d.m, d.k, d.n);
    gemm_naive_bt_acc(a.data(), b.data(), want.data(), d.m, d.k, d.n);
    expect_close(got, want, d.k);
  }
}

// The threaded path splits C into row/column stripes but never splits the
// k-reduction, so a multi-worker run must be bit-identical to the inline run.
TEST(GemmBlocked, BitIdenticalAcrossWorkerCounts) {
  const std::int64_t m = 37, k = 150, n = 1100;  // big enough to fan out
  const auto a = random_vec(m * k, 71);
  const auto b = random_vec(k * n, 73);
  std::vector<float> inline_c(static_cast<std::size_t>(m * n));
  std::vector<float> pooled_c(inline_c.size());

  util::ThreadPool::configure_global(0);
  gemm(a.data(), b.data(), inline_c.data(), m, k, n);
  util::ThreadPool::configure_global(3);
  gemm(a.data(), b.data(), pooled_c.data(), m, k, n);
  util::ThreadPool::configure_global(0);

  for (std::size_t i = 0; i < inline_c.size(); ++i) {
    ASSERT_EQ(inline_c[i], pooled_c[i]) << "at index " << i;
  }
}

// The k-split contract of gemm.hpp: gemm_bt_acc over consecutive k-slices,
// each a whole number of kGemmKBlock blocks (the last may be ragged), is
// bitwise equal to one full-k call. The grouped conv backward accumulates dW
// this way, so a change to the k-block that breaks it fails here rather than
// silently changing training losses.
TEST(GemmBlocked, BtAccKSplitAtKBlockMultiplesIsBitIdentical) {
  const std::int64_t m = 16, n = 150;
  const std::int64_t slices[] = {2 * kGemmKBlock, kGemmKBlock,
                                 3 * kGemmKBlock, 2 * kGemmKBlock + 7};
  std::int64_t k = 0;
  for (const std::int64_t s : slices) k += s;
  const auto a = random_vec(m * k, 83);  // [m x k]
  const auto b = random_vec(n * k, 89);  // stored [n x k]
  const auto c0 = random_vec(m * n, 97);

  for (int workers : {0, 3}) {
    util::ThreadPool::configure_global(workers);
    auto whole = c0;
    gemm_bt_acc(a.data(), b.data(), whole.data(), m, k, n);

    // Slice p0..p0+s of k: A's columns and B's columns, repacked densely.
    auto split = c0;
    std::int64_t p0 = 0;
    for (const std::int64_t s : slices) {
      std::vector<float> as(static_cast<std::size_t>(m * s));
      std::vector<float> bs(static_cast<std::size_t>(n * s));
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t p = 0; p < s; ++p) as[i * s + p] = a[i * k + p0 + p];
      }
      for (std::int64_t j = 0; j < n; ++j) {
        for (std::int64_t p = 0; p < s; ++p) bs[j * s + p] = b[j * k + p0 + p];
      }
      gemm_bt_acc(as.data(), bs.data(), split.data(), m, s, n);
      p0 += s;
    }
    util::ThreadPool::configure_global(0);

    for (std::size_t i = 0; i < whole.size(); ++i) {
      ASSERT_EQ(std::memcmp(&whole[i], &split[i], sizeof(float)), 0)
          << "at index " << i << " with " << workers << " workers";
    }
  }
}

// End-to-end determinism: a full training run (conv forward/backward, bias
// and activation loops, ADAM updates) produces bit-identical epoch losses
// with 1 thread and with 4 threads.
TEST(GemmBlocked, TrainingLossesIdenticalAcrossThreadCounts) {
  core::TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;
  cfg.border = core::BorderMode::kZeroPad;
  cfg.epochs = 3;
  cfg.batch_size = 4;
  cfg.loss = "mse";

  core::SubdomainTask task;
  task.inputs = Tensor({12, 4, 12, 12});
  task.targets = Tensor({12, 4, 12, 12});
  util::Rng rng(20260805);
  rng.fill_uniform(task.inputs.values(), 0.1f, 1.0f);
  rng.fill_uniform(task.targets.values(), 0.1f, 1.0f);

  auto run = [&](int workers) {
    util::ThreadPool::configure_global(workers);
    core::NetworkTrainer trainer(cfg, /*seed_stream=*/0);
    const auto result = trainer.train(task);
    util::ThreadPool::configure_global(0);
    std::vector<double> losses;
    for (const auto& e : result.epochs) losses.push_back(e.loss);
    return losses;
  };

  const auto one_thread = run(0);   // inline: 1 thread total
  const auto four_threads = run(3); // caller + 3 workers = 4 threads
  ASSERT_EQ(one_thread.size(), four_threads.size());
  for (std::size_t e = 0; e < one_thread.size(); ++e) {
    ASSERT_EQ(one_thread[e], four_threads[e]) << "epoch " << e;
  }
}

}  // namespace
}  // namespace parpde
