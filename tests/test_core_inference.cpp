// Parallel inference: halo-pad rollout must match the monolithic network
// exactly when all ranks share the same weights; zero-pad rollout is
// communication-free; valid-inner cannot roll out.

#include <gtest/gtest.h>

#include "core/inference.hpp"
#include "helpers.hpp"
#include "util/random.hpp"

namespace parpde::core {
namespace {

using parpde::testing::recorded_rollout;

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

// Builds a fake "trained" report where every rank carries the same weights.
ParallelTrainReport shared_weight_report(const TrainConfig& cfg, int ranks,
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

TEST(ParallelRollout, HaloPadMatchesMonolithicExactly) {
  // Same weights everywhere + receptive-field halo exchange == the monolithic
  // network evaluated on the zero-extended full frame. This is the key
  // correctness property of the paper's inference scheme.
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;

  NetworkTrainer reference(cfg, /*seed_stream=*/0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);

  const Tensor initial = random_frame(grid, 42);
  const int steps = 3;
  const auto parallel = recorded_rollout(cfg, report, initial, steps);
  const auto sequential = sequential_rollout(reference, initial, steps);

  ASSERT_EQ(parallel.frames.size(), static_cast<std::size_t>(steps));
  ASSERT_EQ(sequential.size(), static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    // Bit-exact would require identical summation order inside the convs;
    // the direct float32 conv is order-identical here, so compare tightly.
    parpde::testing::expect_tensors_close(parallel.frames.at(s),
                                          sequential[static_cast<std::size_t>(s)],
                                          1e-5, 1e-4);
  }
  EXPECT_GT(parallel.result.halo_bytes, 0u);
  EXPECT_GE(parallel.result.comm_seconds, 0.0);
  EXPECT_GT(parallel.result.compute_seconds, 0.0);
}

TEST(ParallelRollout, MoreRanksStillMatchMonolithic) {
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 24;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 9, params, grid);
  const Tensor initial = random_frame(grid, 7);
  const auto parallel = recorded_rollout(cfg, report, initial, 2);
  const auto sequential = sequential_rollout(reference, initial, 2);
  ASSERT_EQ(parallel.frames.size(), 2u);
  for (int s = 0; s < 2; ++s) {
    parpde::testing::expect_tensors_close(parallel.frames.at(s),
                                          sequential[static_cast<std::size_t>(s)],
                                          1e-5, 1e-4);
  }
}

TEST(ParallelRollout, ZeroPadIsCommunicationFreeButApproximate) {
  const TrainConfig cfg = small_config(BorderMode::kZeroPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 13);
  const auto parallel =
      parallel_rollout(cfg, report, initial, 1, RolloutOptions{});
  EXPECT_EQ(parallel.halo_bytes, 0u);  // no halo traffic in zero-pad mode
  ASSERT_EQ(parallel.frames.size(), 1u);  // the final (only) step

  // The zero-padded subdomain borders differ from the monolithic result at
  // the inner seams — the accuracy cost of approach 1.
  const auto sequential = sequential_rollout(reference, initial, 1);
  double seam_diff = 0.0;
  const auto& pf = parallel.frames[0];
  const auto& sf = sequential[0];
  for (std::int64_t c = 0; c < 4; ++c) {
    for (std::int64_t y = 0; y < grid; ++y) {
      seam_diff = std::max(
          seam_diff, std::abs(static_cast<double>(pf.at(c, y, grid / 2)) -
                              sf.at(c, y, grid / 2)));
    }
  }
  EXPECT_GT(seam_diff, 1e-6);
}

TEST(ParallelRollout, ValidInnerModeRefuses) {
  const TrainConfig cfg = small_config(BorderMode::kValidInner);
  NetworkTrainer reference(small_config(BorderMode::kHaloPad), 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, 16);
  EXPECT_THROW(parallel_rollout(cfg, report, random_frame(16, 1), 1,
                                RolloutOptions{}),
               std::invalid_argument);
}

TEST(ParallelRollout, RejectsBadArguments) {
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, 16);
  EXPECT_THROW(parallel_rollout(cfg, report, Tensor({1, 4, 16, 16}), 1,
                                RolloutOptions{}),
               std::invalid_argument);
  EXPECT_THROW(parallel_rollout(cfg, report, random_frame(16, 2), 0,
                                RolloutOptions{}),
               std::invalid_argument);
}

TEST(SequentialRollout, ProducesRequestedSteps) {
  const TrainConfig cfg = small_config(BorderMode::kZeroPad);
  NetworkTrainer trainer(cfg, 0);
  const Tensor initial = random_frame(12, 3);
  const auto frames = sequential_rollout(trainer, initial, 4);
  ASSERT_EQ(frames.size(), 4u);
  for (const auto& f : frames) {
    EXPECT_EQ(f.shape(), (Shape{4, 12, 12}));
  }
  // Autoregressive: step k+1 is the prediction from step k, so frames differ.
  double diff = 0.0;
  for (std::int64_t i = 0; i < frames[0].size(); ++i) {
    diff = std::max(diff, std::abs(static_cast<double>(frames[0][i]) -
                                   frames[3][i]));
  }
  EXPECT_GT(diff, 0.0);
}

}  // namespace
}  // namespace parpde::core
