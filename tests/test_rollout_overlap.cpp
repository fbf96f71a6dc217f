// Rollout engine: the split halo exchange followed by one whole-tile
// ForwardPlan run per step must be bit-identical to the stepped rollout
// oracle (tests/helpers.hpp) — healthy, under injected message delay, and
// under message loss with degraded borders — a step that sends no message
// must perform zero heap allocations (real counts, tests/alloc_counter.hpp),
// and its recorded frames must reach the sink through one reused buffer, so
// frame-sized allocations do not grow with the step count. ForwardPlan
// itself, deconv mode included, must match the module graph bit for bit.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "backend/kernel_backend.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "domain/exchange.hpp"
#include "domain/halo.hpp"
#include "helpers.hpp"
#include "minimpi/cart.hpp"
#include "minimpi/environment.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/tags.hpp"
#include "nn/forward_plan.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace parpde::core {
namespace {

TrainConfig small_config(BorderMode mode) {
  TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;  // receptive halo 2
  cfg.border = mode;
  return cfg;
}

Tensor random_frame(std::int64_t n, std::uint64_t seed) {
  Tensor t({4, n, n});
  util::Rng rng(seed);
  rng.fill_uniform(t.values(), 0.5f, 1.5f);
  return t;
}

ParallelTrainReport shared_weight_report(const TrainConfig& /*cfg*/, int ranks,
                                         const std::vector<Tensor>& params,
                                         std::int64_t grid) {
  ParallelTrainReport report;
  report.ranks = ranks;
  report.dims = mpi::dims_create(ranks);
  const domain::Partition part(grid, grid, report.dims.px, report.dims.py);
  report.rank_outcomes.resize(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto& outcome = report.rank_outcomes[static_cast<std::size_t>(r)];
    outcome.rank = r;
    outcome.block = part.block_of_rank(r);
    outcome.parameters = params;
  }
  return report;
}

using parpde::testing::expect_frames_bit_identical;
using parpde::testing::expect_frames_match_oracle;
using parpde::testing::recorded_rollout;
using parpde::testing::stepped_rollout_oracle;

TEST(RolloutOverlap, BitIdenticalToOracleHaloPad) {
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 42);
  const int steps = 4;

  const auto oracle = stepped_rollout_oracle(cfg, report, initial, steps);
  // The fp32 oracle is stepping the SubdomainEnsemble, bit for bit.
  const SubdomainEnsemble ensemble(cfg, report, grid, grid);
  Tensor frame = initial;
  for (int s = 0; s < steps; ++s) {
    frame = ensemble.predict(frame);
    parpde::testing::expect_tensors_equal(frame,
                                          oracle[static_cast<std::size_t>(s)]);
  }

  const auto run = recorded_rollout(cfg, report, initial, steps);
  expect_frames_match_oracle(run, oracle);
  const RolloutResult& overlapped = run.result;
  // 2x2 ranks of [4, 8, 8]: per step every rank sends one W/E strip
  // [C, bh, halo] and one S/N strip of the x-extended staging
  // [C, halo, bw + 2 halo].
  const std::uint64_t c = 4, b = 8, halo = 2;
  const std::uint64_t strip_floats = c * b * halo + c * halo * (b + 2 * halo);
  EXPECT_EQ(overlapped.halo_bytes, 4 * steps * strip_floats * sizeof(float));
  EXPECT_EQ(overlapped.halo_bytes_received, overlapped.halo_bytes);
  EXPECT_EQ(overlapped.degraded_borders, 0);
  EXPECT_GE(overlapped.overlap_seconds, 0.0);
  ASSERT_EQ(overlapped.step_seconds.size(), static_cast<std::size_t>(steps));

  // The health monitor observes only: the same frames with it switched off.
  RolloutOptions unmonitored;
  unmonitored.monitor_health = false;
  const auto quiet =
      recorded_rollout(cfg, report, initial, steps, unmonitored);
  expect_frames_bit_identical(run, quiet);
}

TEST(RolloutOverlap, BitIdenticalToOracleZeroPad) {
  const TrainConfig cfg = small_config(BorderMode::kZeroPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 7);

  const auto overlapped = recorded_rollout(cfg, report, initial, 3);

  expect_frames_match_oracle(overlapped,
                             stepped_rollout_oracle(cfg, report, initial, 3));
  // zero-pad is communication-free
  EXPECT_EQ(overlapped.result.halo_bytes, 0u);
}

TEST(RolloutOverlap, BitIdenticalWithPoolWorkers) {
  // Each rank's forward fans out over the intra-rank pool; the values must
  // not depend on the worker count (the k-reduction never splits).
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 24;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 9, params, grid);
  const Tensor initial = random_frame(grid, 11);

  const auto inline_run = recorded_rollout(cfg, report, initial, 3);
  util::ThreadPool::configure_global(3);
  const auto pooled = recorded_rollout(cfg, report, initial, 3);
  util::ThreadPool::configure_global(0);

  expect_frames_bit_identical(inline_run, pooled);
  expect_frames_match_oracle(pooled,
                             stepped_rollout_oracle(cfg, report, initial, 3));
}

TEST(RolloutOverlap, RecordEveryStrideMatchesFullRecording) {
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 3);
  const int steps = 5;

  const auto full = recorded_rollout(cfg, report, initial, steps);
  RolloutOptions strided;
  strided.record_every = 2;
  const auto sparse = recorded_rollout(cfg, report, initial, steps, strided);

  // Steps 1, 3 (every second) plus the final step 4.
  ASSERT_EQ(sparse.steps(), (std::vector<int>{1, 3, 4}));
  for (const auto& [step, frame] : sparse.frames) {
    SCOPED_TRACE("recorded step " + std::to_string(step));
    parpde::testing::expect_tensors_equal(frame, full.frames.at(step));
  }
  ASSERT_EQ(sparse.result.frames.size(), 1u);
  parpde::testing::expect_tensors_equal(sparse.result.frames.front(),
                                        full.frames.at(steps - 1));

  RolloutOptions none;
  none.record_every = 0;
  const auto silent = recorded_rollout(cfg, report, initial, steps, none);
  EXPECT_TRUE(silent.frames.empty());
  EXPECT_TRUE(silent.result.frames.empty());
}

TEST(RolloutOverlap, FinalFrameIsTheSinksLastDelivery) {
  // The sink sees every recorded step once, in step order; the result keeps
  // only the last of them.
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 17);
  const int steps = 4;

  std::vector<int> delivered;
  Tensor last;
  RolloutOptions options;
  options.on_frame = [&](int step, const Tensor& frame) {
    delivered.push_back(step);
    last = frame;
  };
  const auto result = parallel_rollout(cfg, report, initial, steps, options);
  EXPECT_EQ(delivered, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(result.frames.size(), 1u);
  parpde::testing::expect_tensors_equal(result.frames.front(), last);
}

TEST(RolloutOverlap, RecordedFramesDoNotGrowMemoryWithStepCount) {
  // Rank 0 gathers every recorded frame into one reused buffer and hands it
  // to the sink, so a rollout of twice the steps, every step recorded, makes
  // exactly as many allocations of a full frame's size or more.
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 19);

  double checksum = 0.0;
  RolloutOptions options;
  options.on_frame = [&](int, const Tensor& frame) { checksum += frame[0]; };
  auto frame_sized_allocs = [&](int steps) {
    std::int64_t count = 0;
    RolloutResult result;
    {
      parpde::testing::AllocCounter allocs(
          static_cast<std::size_t>(initial.size()) * sizeof(float));
      result = parallel_rollout(cfg, report, initial, steps, options);
      count = allocs.count();
    }
    EXPECT_EQ(result.frames.size(), 1u);
    return count;
  };
  const std::int64_t short_run = frame_sized_allocs(6);
  const std::int64_t long_run = frame_sized_allocs(12);
  EXPECT_GT(short_run, 0);  // the gather buffer at least
  EXPECT_EQ(long_run, short_run);
  EXPECT_TRUE(std::isfinite(checksum));
}

// A step that sends no message allocates nothing: a rollout of 2n steps
// makes exactly as many heap allocations as one of n steps, whatever the
// border mode, backend or runtime. 1x1 tiles exchange no halo strip (every
// border is physical), 2x2 zero-pad exchanges none either, and record_every 0
// gathers no frame; the elastic runtime runs only at 1x1, where its heartbeat
// barrier has no peer to message. The pool is inline (0 workers), so no
// worker's first-chunk scratch depends on the scheduler.
TEST(RolloutOverlap, MessageFreeRolloutAllocatesNothingPerStep) {
  const std::int64_t grid = 16;
  const Tensor initial = random_frame(grid, 23);
  struct Case {
    BorderMode mode;
    int ranks;
    const backend::KernelBackend* backend;
    bool elastic;
  };
  std::vector<Case> cases;
  for (const backend::KernelBackend* bk :
       {&backend::blocked_f32(), &backend::quantized_int8()}) {
    for (const BorderMode mode :
         {BorderMode::kHaloPad, BorderMode::kZeroPad, BorderMode::kDeconv}) {
      // Transpose convs run on fp32 only.
      if (mode == BorderMode::kDeconv && bk != &backend::blocked_f32()) {
        continue;
      }
      cases.push_back({mode, 1, bk, false});
      cases.push_back({mode, 1, bk, true});
    }
    cases.push_back({BorderMode::kZeroPad, 4, bk, false});
  }
  util::ThreadPool::configure_global(0);
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(border_mode_name(c.mode)) + " " +
                 c.backend->name() + " ranks " + std::to_string(c.ranks) +
                 (c.elastic ? " elastic" : ""));
    const TrainConfig cfg = small_config(c.mode);
    NetworkTrainer reference(cfg, 0);
    const auto report = shared_weight_report(
        cfg, c.ranks, export_parameters(reference.model()), grid);
    RolloutOptions options;
    options.backend = c.backend;
    options.record_every = 0;
    options.elastic.enabled = c.elastic;
    auto allocs_of = [&](int steps) {
      parpde::testing::AllocCounter allocs;
      (void)parallel_rollout(cfg, report, initial, steps, options);
      return allocs.count();
    };
    (void)allocs_of(1);  // first-call statics (telemetry registrations)
    const std::int64_t short_run = allocs_of(3);
    EXPECT_EQ(allocs_of(6), short_run);
  }
}

TEST(RolloutOverlap, InjectedDelayKeepsFramesBitIdentical) {
  // Strips arrive late but intact: the bounded receives absorb the delay and
  // the frames must not change by a single bit.
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 9);

  mpi::fault::Rule delay;
  delay.action = mpi::fault::Action::kDelay;
  delay.tag_lo = mpi::tags::kHalo.base;
  delay.tag_hi = mpi::tags::kHalo.base + mpi::tags::kHalo.count - 1;
  delay.delay_ms = 2;
  mpi::fault::install(mpi::fault::FaultPlan(5).add_rule(delay));
  const auto delayed = recorded_rollout(cfg, report, initial, 3);
  mpi::fault::uninstall();

  expect_frames_match_oracle(delayed,
                             stepped_rollout_oracle(cfg, report, initial, 3));
  EXPECT_EQ(delayed.result.degraded_borders, 0);
}

mpi::fault::Rule drop_halo_from(int source) {
  mpi::fault::Rule drop;
  drop.action = mpi::fault::Action::kDrop;
  drop.tag_lo = mpi::tags::kHalo.base;
  drop.tag_hi = mpi::tags::kHalo.base + mpi::tags::kHalo.count - 1;
  drop.source = source;
  return drop;
}

RolloutOptions degraded_options() {
  RolloutOptions options;
  options.halo.recv_timeout = std::chrono::milliseconds(10);
  options.halo.max_retries = 1;
  return options;
}

TEST(RolloutOverlap, PartialDegradationMatchesIsolatedOracle) {
  // Two ranks, one shared border; every strip rank 1 sends is lost. Rank 0
  // degrades its only live border at step 0, stops talking to rank 1 (sticky),
  // and rank 1 therefore degrades the opposite side at step 1 — a protocol-
  // driven cascade with no third rank whose retry deadline could race the
  // stalled sends. From its degradation step on, each rank steps on a zero
  // halo.
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 2, params, grid);
  const Tensor initial = random_frame(grid, 21);

  mpi::fault::install(mpi::fault::FaultPlan(7).add_rule(drop_halo_from(1)));
  const auto over =
      recorded_rollout(cfg, report, initial, 3, degraded_options());
  mpi::fault::uninstall();

  // rank 0 then, one step later, rank 1
  EXPECT_EQ(over.result.degraded_borders, 2);
  EXPECT_EQ(over.result.degraded_detail,
            (std::vector<std::string>{"rank 0: e", "rank 1: w"}));
  expect_frames_match_oracle(
      over, stepped_rollout_oracle(cfg, report, initial, 3, nullptr, {0, 1}));
}

TEST(RolloutOverlap, TotalBlackoutMatchesIsolatedOracle) {
  // Every halo strip in the whole grid is lost: all interior borders must
  // degrade at step 0 (timing-independent — there is nothing left to arrive
  // late), and every rank steps on a zero halo from the start.
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 23);

  mpi::fault::install(mpi::fault::FaultPlan(11).add_rule(drop_halo_from(-1)));
  const auto over =
      recorded_rollout(cfg, report, initial, 2, degraded_options());
  mpi::fault::uninstall();

  // 2x2 grid: every rank loses its two live borders.
  EXPECT_EQ(over.result.degraded_borders, 8);
  EXPECT_EQ(over.result.degraded_detail,
            (std::vector<std::string>{"rank 0: e,n", "rank 1: w,n",
                                      "rank 2: e,s", "rank 3: w,s"}));
  expect_frames_match_oracle(
      over,
      stepped_rollout_oracle(cfg, report, initial, 2, nullptr, {0, 0, 0, 0}));
}

TEST(RolloutOverlap, SplitExchangeMatchesMonolithicAcrossSteps) {
  // HaloExchange::begin/finish with persistent buffers must reproduce
  // exchange_halo exactly, step after step (the reused staging must not leak
  // stale halo data between steps).
  const std::int64_t grid = 12, halo = 2;
  const int ranks = 4;
  const auto dims = mpi::dims_create(ranks);
  const domain::Partition partition(grid, grid, dims.px, dims.py);

  std::vector<std::vector<Tensor>> serialized(static_cast<std::size_t>(ranks));
  std::vector<std::vector<Tensor>> split(static_cast<std::size_t>(ranks));
  for (int mode = 0; mode < 2; ++mode) {
    mpi::Environment env(ranks);
    env.run([&](mpi::Communicator& comm) {
      mpi::CartComm cart(comm, dims.px, dims.py);
      const auto block = partition.block(cart.cx(), cart.cy());
      domain::BorderHealth health;
      std::optional<domain::HaloExchange> exchange;
      if (mode == 1) {
        exchange.emplace(cart, partition, halo, domain::HaloOptions{}, &health);
      }
      Tensor padded;
      for (int step = 0; step < 3; ++step) {
        Tensor interior({3, block.height(), block.width()});
        util::Rng rng(static_cast<std::uint64_t>(
            1000 + comm.rank() * 17 + step));
        rng.fill_uniform(interior.values(), -1.0f, 1.0f);
        if (mode == 0) {
          padded = domain::exchange_halo(cart, partition, interior, halo,
                                         nullptr, {}, &health);
          serialized[static_cast<std::size_t>(comm.rank())].push_back(padded);
        } else {
          exchange->begin(interior);
          exchange->finish(interior, padded);
          split[static_cast<std::size_t>(comm.rank())].push_back(padded);
        }
      }
    });
  }
  for (int r = 0; r < ranks; ++r) {
    for (std::size_t s = 0; s < 3; ++s) {
      SCOPED_TRACE("rank " + std::to_string(r) + " step " + std::to_string(s));
      parpde::testing::expect_tensors_equal(
          serialized[static_cast<std::size_t>(r)][s],
          split[static_cast<std::size_t>(r)][s]);
    }
  }
}

TEST(ForwardPlan, BitIdenticalToModuleForwardAndAllocationFree) {
  // The halo-pad net (conv steps with fused activations) and the deconv-mode
  // net with a final activation (a transpose-conv step followed by a
  // standalone activation step).
  TrainConfig deconv = small_config(BorderMode::kDeconv);
  deconv.network.final_activation = true;
  for (const TrainConfig& cfg :
       {small_config(BorderMode::kHaloPad), deconv}) {
    SCOPED_TRACE(border_mode_name(cfg.border));
    util::Rng rng(cfg.seed);
    auto model = build_model(cfg.network, cfg.border, rng);
    if (cfg.border == BorderMode::kDeconv) {
      // Nonzero biases, so a plan that dropped one would show.
      for (const nn::ParamRef& p : model->parameters()) {
        if (p.value->ndim() == 1) {
          rng.fill_uniform(p.value->values(), -0.3f, 0.3f);
        }
      }
    }
    const std::int64_t h = 20, w = 18;
    nn::ForwardPlan plan(*model, 4, h, w);
    EXPECT_EQ(plan.shrink(), cfg.border == BorderMode::kHaloPad
                                 ? 2 * cfg.network.receptive_halo()
                                 : 0);

    Tensor x({4, h, w});
    util::Rng data_rng(99);
    data_rng.fill_uniform(x.values(), -1.0f, 1.0f);

    // Reference through the module graph.
    Tensor x4 = x;
    x4.reshape({1, 4, h, w});
    Tensor expected = model->forward(x4);
    expected.reshape({expected.dim(1), expected.dim(2), expected.dim(3)});

    const nn::ForwardPlan::Output out = plan.run(x.data(), h, w);
    ASSERT_EQ(out.channels, expected.dim(0));
    ASSERT_EQ(out.height, expected.dim(1));
    ASSERT_EQ(out.width, expected.dim(2));
    for (std::int64_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(out.data[i], expected.data()[i]) << "at index " << i;
    }

    // Smaller geometries reuse the same buffers.
    {
      parpde::testing::AllocCounter allocs;
      (void)plan.run(x.data(), h - 4, w - 6);
      EXPECT_EQ(allocs.count(), 0);
    }

    // Steady state: zero heap allocations across repeated runs. The pool is
    // inline here (0 workers), matching the per-rank inference configuration
    // where rank threads run their own chunks.
    {
      parpde::testing::AllocCounter allocs;
      for (int i = 0; i < 8; ++i) {
        const nn::ForwardPlan::Output steady = plan.run(x.data(), h, w);
        ASSERT_NE(steady.data, nullptr);
      }
      EXPECT_EQ(allocs.count(), 0);
    }

    // run_batched over 3 stacked samples equals 3 solo runs, allocation-free.
    constexpr std::int64_t kBatch = 3;
    const std::int64_t sample = 4 * h * w;
    Tensor stacked({kBatch, 4, h, w});
    data_rng.fill_uniform(stacked.values(), -1.0f, 1.0f);
    std::vector<float> solo;
    for (std::int64_t s = 0; s < kBatch; ++s) {
      const nn::ForwardPlan::Output o =
          plan.run(stacked.data() + s * sample, h, w);
      solo.insert(solo.end(), o.data, o.data + o.size());
    }
    nn::ForwardPlan batched(*model, 4, h, w, nullptr, kBatch);
    (void)batched.run_batched(stacked.data(), kBatch, h, w);
    nn::ForwardPlan::Output group;
    {
      parpde::testing::AllocCounter allocs;
      group = batched.run_batched(stacked.data(), kBatch, h, w);
      EXPECT_EQ(allocs.count(), 0);
    }
    ASSERT_EQ(kBatch * group.size(), static_cast<std::int64_t>(solo.size()));
    for (std::size_t i = 0; i < solo.size(); ++i) {
      ASSERT_EQ(group.data[i], solo[i]) << "at index " << i;
    }
  }
}

TEST(DeconvMode, RolloutBitIdenticalToModuleGraph) {
  // Deconv mode (Sec. III approach 4) steps through ForwardPlan on every
  // engine; each must reproduce per-block stepping through the module graph.
  const TrainConfig cfg = small_config(BorderMode::kDeconv);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  auto params = export_parameters(reference.model());
  util::Rng bias_rng(5);
  for (Tensor& t : params) {
    if (t.ndim() == 1) bias_rng.fill_uniform(t.values(), -0.3f, 0.3f);
  }
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 31);
  const int steps = 3;

  // Oracle: every 2x2 block's network stepped on its own tile (deconv mode
  // exchanges nothing) through nn::Sequential::forward.
  const domain::Partition partition(grid, grid, report.dims.px,
                                    report.dims.py);
  const auto model = rebuild_model(cfg, params);
  std::vector<Tensor> oracle;
  Tensor frame = initial;
  for (int s = 0; s < steps; ++s) {
    Tensor next(frame.shape());
    for (int b = 0; b < report.ranks; ++b) {
      const domain::BlockRange block = partition.block_of_rank(b);
      Tensor tile = domain::extract_interior(frame, block);
      const Tensor out = parpde::testing::module_forward(*model, tile);
      domain::insert_interior(next, block, out);
    }
    frame = next;
    oracle.push_back(std::move(next));
  }

  const auto classic = recorded_rollout(cfg, report, initial, steps);
  expect_frames_match_oracle(classic, oracle);

  RolloutOptions elastic_options;
  elastic_options.elastic.enabled = true;
  const auto elastic =
      recorded_rollout(cfg, report, initial, steps, elastic_options);
  expect_frames_match_oracle(elastic, oracle);

  const SubdomainEnsemble ensemble(cfg, report, grid, grid);
  frame = initial;
  for (int s = 0; s < steps; ++s) {
    frame = ensemble.predict(frame);
    parpde::testing::expect_tensors_equal(frame,
                                          oracle[static_cast<std::size_t>(s)]);
  }
}

TEST(SubdomainEnsemble, ParallelPredictMatchesPerBlockReference) {
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor frame = random_frame(grid, 13);

  SubdomainEnsemble ensemble(cfg, report, grid, grid);

  // Reference: the pre-ISSUE-5 serial per-block loop.
  util::Rng rng(cfg.seed);
  auto model = build_model(cfg.network, cfg.border, rng);
  import_parameters(*model, params);
  const std::int64_t halo = cfg.network.receptive_halo();
  Tensor expected({frame.dim(0), grid, grid});
  for (int r = 0; r < 4; ++r) {
    const auto block = ensemble.partition().block_of_rank(r);
    Tensor input = domain::extract_with_halo(frame, block, halo);
    input.reshape({1, input.dim(0), input.dim(1), input.dim(2)});
    Tensor out = model->forward(input);
    out.reshape({out.dim(1), out.dim(2), out.dim(3)});
    domain::insert_interior(expected, block, out);
  }

  const Tensor serial = ensemble.predict(frame);
  parpde::testing::expect_tensors_equal(serial, expected);

  // Same result with pool workers and on a second call (buffer reuse).
  util::ThreadPool::configure_global(3);
  const Tensor pooled = ensemble.predict(frame);
  util::ThreadPool::configure_global(0);
  parpde::testing::expect_tensors_equal(pooled, expected);
  const Tensor again = ensemble.predict(frame);
  parpde::testing::expect_tensors_equal(again, expected);
}

}  // namespace
}  // namespace parpde::core
