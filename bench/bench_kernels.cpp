// Kernel microbenchmark: GFLOP/s of the direct fp32 forward convolution
// (nn::conv2d_forward_batched) on each Table-I layer at the training
// geometry, the blocked GEMM against the naive reference on one sample
// group's weight-gradient GEMM of Table-I layer 2 (the only GEMM training
// runs, once per group of nn::conv2d_batch_group samples), the
// per-backend inference convs, and the samples/sec of a full Table-I training
// step. Emits a single JSON object on stdout so runs can be archived and
// diffed.
//
//   bench_kernels [--threads N] [--grid G] [--batch B] [--full]
//
// --threads sets the intra-rank pool size (1 = fully inline). --grid is the
// subdomain tile: the forward rows run the halo-padded training geometry,
// layer l reading a (G + 16 - 4(l-1))^2 tile unpadded, so --grid=32 times
// train_64's layers. The paper's full-scale shapes (grid 256) are selected
// with --full / PARPDE_FULL=1.

#include <cstdio>
#include <string>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "core/config.hpp"
#include "core/trainer.hpp"
#include "nn/conv_ops.hpp"
#include "tensor/gemm.hpp"
#include "util/options.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using parpde::util::WallTimer;

std::vector<float> random_vec(std::int64_t n, parpde::util::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  rng.fill_uniform(v, -1.0f, 1.0f);
  return v;
}

// Runs `fn` repeatedly until ~0.2 s has elapsed; returns seconds per call.
template <typename Fn>
double time_call(Fn&& fn) {
  fn();  // warm-up (first call may fault in workspaces)
  WallTimer timer;
  int reps = 0;
  do {
    fn();
    ++reps;
  } while (timer.seconds() < 0.2);
  return timer.seconds() / reps;
}

}  // namespace

int main(int argc, char** argv) {
  const parpde::util::Options opts(argc, argv);
  const bool full =
      parpde::util::env_flag("PARPDE_FULL") || opts.get_bool("full", false);
  const int grid = opts.get_int("grid", full ? 256 : 64);
  const int batch = opts.get_int("batch", 16);
  const int threads = opts.get_int("threads", 1);
  parpde::util::ThreadPool::configure_global(threads - 1);

  // Table I: conv layers 4 -> 6 -> 16 -> 6 -> 4, 5x5 kernels.
  const std::vector<std::int64_t> channels = {4, 6, 16, 6, 4};
  parpde::util::Rng rng(20260805);
  std::printf("{\n  \"threads\": %d,\n  \"grid\": %d,\n  \"batch\": %d,\n",
              threads, grid, batch);

  // Direct forward per layer on the halo-padded tile: 4 * (5 - 1) / 2 = 8
  // halo cells per side, each unpadded 5x5 layer trimming 2 of them.
  std::printf("  \"conv_forward\": [\n");
  for (std::size_t l = 0; l + 1 < channels.size(); ++l) {
    const std::int64_t cin = channels[l], cout = channels[l + 1];
    const std::int64_t in = grid + 16 - 4 * static_cast<std::int64_t>(l);
    parpde::Tensor x({batch, cin, in, in}), w({cout, cin, 5, 5}), b({cout});
    rng.fill_uniform(x.values(), -1.0f, 1.0f);
    rng.fill_uniform(w.values(), -1.0f, 1.0f);
    rng.fill_uniform(b.values(), -1.0f, 1.0f);
    parpde::Tensor y;
    parpde::nn::Conv2dWorkspace ws;
    const double s = time_call(
        [&] { parpde::nn::conv2d_forward_batched(x, w, b, 0, y, ws); });
    const std::int64_t out = in - 4;
    const double flops = 2.0 * static_cast<double>(cout * cin * 25) *
                         static_cast<double>(batch * out * out);
    std::printf("    {\"name\": \"layer%zu_fwd\", \"cin\": %lld, "
                "\"cout\": %lld, \"in\": %lld, \"ms\": %.3f, "
                "\"gflops\": %.3f}%s\n",
                l + 1, static_cast<long long>(cin),
                static_cast<long long>(cout), static_cast<long long>(in),
                s * 1e3, flops / s * 1e-9,
                l + 2 < channels.size() ? "," : "");
    std::fflush(stdout);
  }
  std::printf("  ],\n");

  // One sample group's weight-gradient GEMM of the widest layer (6 -> 16)
  // at its training geometry: dW [Cout x Cin*25] += dY [Cout x G*OH*OW] *
  // rows [G*OH*OW x Cin*25], G from the backward's own grouping rule.
  {
    const std::int64_t in = grid + 12, out = in - 4;
    const std::int64_t group = parpde::nn::conv2d_batch_group(
        parpde::ConvGeometry{channels[1], in, in, 5, 0}, batch);
    const std::int64_t m = channels[2], n = channels[1] * 25;
    const std::int64_t k = group * out * out;
    const auto a = random_vec(m * k, rng);
    const auto b = random_vec(k * n, rng);
    std::vector<float> c(static_cast<std::size_t>(m * n));
    const double flops = 2.0 * static_cast<double>(m) *
                         static_cast<double>(k) * static_cast<double>(n);
    const double naive_s = time_call([&] {
      parpde::gemm_naive_acc(a.data(), b.data(), c.data(), m, k, n);
    });
    const double blocked_s = time_call(
        [&] { parpde::gemm_acc(a.data(), b.data(), c.data(), m, k, n); });
    std::printf("  \"gemm\": [\n    {\"name\": \"layer2_bwd_weights\", "
                "\"group\": %lld, \"m\": %lld, \"k\": %lld, \"n\": %lld, "
                "\"naive_gflops\": %.3f, \"blocked_gflops\": %.3f, "
                "\"speedup\": %.2f}\n  ],\n",
                static_cast<long long>(group), static_cast<long long>(m),
                static_cast<long long>(k), static_cast<long long>(n),
                flops / naive_s * 1e-9,
                flops / blocked_s * 1e-9, naive_s / blocked_s);
    std::fflush(stdout);
  }

  // Per-backend fused inference conv on each Table-I layer: the single-sample
  // [Cin, grid+4, grid+4] valid conv the rollout's ForwardPlan runs (halo-pad
  // geometry), fp32 vs int8 through the KernelBackend conv_forward entry.
  {
    namespace backend = parpde::backend;
    const std::int64_t kernel = 5, h = grid + 4, w = grid + 4;
    const std::int64_t oh = h - kernel + 1, ow = w - kernel + 1;
    std::vector<backend::ConvLayerDesc> descs;
    std::vector<std::vector<float>> weights, biases;
    std::vector<float> ranges;
    for (std::size_t l = 0; l + 1 < channels.size(); ++l) {
      const std::int64_t cin = channels[l], cout = channels[l + 1];
      weights.push_back(random_vec(cout * cin * kernel * kernel, rng));
      biases.push_back(random_vec(cout, rng));
      backend::ConvLayerDesc d;
      d.weight = weights.back().data();
      d.bias = biases.back().data();
      d.in_channels = cin;
      d.out_channels = cout;
      d.kernel = kernel;
      d.pad = 0;
      d.fused = backend::Fused::kLeakyReLU;
      d.slope = 0.01f;
      descs.push_back(d);
      ranges.push_back(1.0f);  // inputs are drawn uniform in [-1, 1]
    }
    const backend::KernelBackend& fp32 = backend::blocked_f32();
    const backend::KernelBackend& int8 = backend::quantized_int8();
    auto fp32_ctx = fp32.make_plan_context(descs, h, w);
    auto int8_ctx = int8.make_plan_context(descs, h, w);
    int8.set_input_ranges(*int8_ctx, ranges);

    std::printf("  \"conv_backends\": [\n");
    for (std::size_t l = 0; l < descs.size(); ++l) {
      const auto& d = descs[l];
      const auto x = random_vec(d.in_channels * h * w, rng);
      std::vector<float> y(static_cast<std::size_t>(d.out_channels * oh * ow));
      const double flops = 2.0 * static_cast<double>(d.out_channels) *
                           static_cast<double>(d.in_channels) * kernel *
                           kernel * static_cast<double>(oh) * ow;
      const double fp32_s = time_call([&] {
        fp32.conv_forward(*fp32_ctx, static_cast<int>(l), x.data(), h, w,
                          y.data());
      });
      const double int8_s = time_call([&] {
        int8.conv_forward(*int8_ctx, static_cast<int>(l), x.data(), h, w,
                          y.data());
      });
      std::printf(
          "    {\"name\": \"layer%zu_conv\", \"cin\": %lld, \"cout\": %lld, "
          "\"hw\": %lld, \"fp32_gflops\": %.3f, \"int8_gflops\": %.3f, "
          "\"int8_speedup\": %.2f}%s\n",
          l + 1, static_cast<long long>(d.in_channels),
          static_cast<long long>(d.out_channels), static_cast<long long>(oh),
          flops / fp32_s * 1e-9, flops / int8_s * 1e-9, fp32_s / int8_s,
          l + 1 < descs.size() ? "," : "");
      std::fflush(stdout);
    }
    std::printf("  ],\n");
  }

  // Full Table-I training step (forward + backward + ADAM) on random data.
  {
    parpde::core::TrainConfig cfg;  // Table I network
    cfg.border = parpde::core::BorderMode::kZeroPad;
    cfg.num_threads = threads;
    parpde::core::NetworkTrainer trainer(cfg, /*seed_stream=*/0);
    parpde::Tensor inputs({batch, channels.front(), grid, grid});
    parpde::Tensor targets({batch, channels.back(), grid, grid});
    rng.fill_uniform(inputs.values(), 0.1f, 1.0f);
    rng.fill_uniform(targets.values(), 0.1f, 1.0f);
    const double step_s =
        time_call([&] { trainer.train_batch(inputs, targets); });
    std::printf("  \"train_step\": {\"grid\": %d, \"batch\": %d, "
                "\"ms_per_step\": %.3f, \"samples_per_sec\": %.1f}\n",
                grid, batch, step_s * 1e3, batch / step_s);
  }
  std::printf("}\n");
  return 0;
}
