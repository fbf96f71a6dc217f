// Elastic runtime unit + integration coverage (src/elastic/): the versioned
// Assignment map and its deterministic rebalance, the PPES rollout-state
// checkpoints, the rollback-line arithmetic, and the placement-independence
// property the self-healing rollout rests on — an elastic rollout of an
// M-task ensemble is bit-identical to the classic engine rolling the same
// report on M ranks, whatever P hosts the tasks. Death/recovery scenarios
// live in test_chaos.cpp (label `chaos`).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/inference.hpp"
#include "core/parallel_trainer.hpp"
#include "elastic/assignment.hpp"
#include "elastic/state_checkpoint.hpp"
#include "euler/simulate.hpp"
#include "helpers.hpp"

namespace parpde::elastic {
namespace {

using core::ExecutionMode;
using core::ParallelTrainer;
using core::TrainConfig;
using parpde::testing::recorded_rollout;

std::string fresh_dir(const std::string& stem) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / stem;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(Assignment, StripesTasksRoundRobinAtEpochZero) {
  const Assignment a(8, 4);
  EXPECT_EQ(a.tasks(), 8);
  EXPECT_EQ(a.ranks(), 4);
  EXPECT_EQ(a.epoch(), 0);
  EXPECT_EQ(a.live_ranks(), 4);
  for (int t = 0; t < 8; ++t) EXPECT_EQ(a.owner(t), t % 4);
  EXPECT_EQ(a.tasks_of(1), (std::vector<int>{1, 5}));
}

TEST(Assignment, RebalanceHandsOrphansToLeastLoadedLiveRank) {
  Assignment a(8, 4);
  const auto moved = a.rebalance({1});
  EXPECT_EQ(a.epoch(), 1);
  EXPECT_EQ(a.live_ranks(), 3);
  EXPECT_FALSE(a.alive(1));
  // Tasks 1 and 5 were orphaned; ascending order, min-load with lowest-id
  // tie-break: task 1 -> rank 0, task 5 -> rank 2.
  EXPECT_EQ(moved, (std::vector<int>{1, 5}));
  EXPECT_EQ(a.owner(1), 0);
  EXPECT_EQ(a.owner(5), 2);
  // Untouched tasks keep their owners.
  for (const int t : {0, 2, 3, 4, 6, 7}) EXPECT_EQ(a.owner(t), t % 4);
}

TEST(Assignment, RebalanceIsAPureFunctionOfTheFailedSet) {
  // Two survivors processing the same cumulative failures — in one batch or
  // rank-by-rank in either order — must converge on identical maps modulo
  // the epoch count (one bump per rebalance call).
  Assignment batch(12, 4);
  batch.rebalance({1, 3});
  Assignment seq(12, 4);
  seq.rebalance({3});
  seq.rebalance({1});
  EXPECT_EQ(batch.epoch(), 1);
  EXPECT_EQ(seq.epoch(), 2);
  for (int t = 0; t < 12; ++t) {
    // Both maps agree every task lives on a live rank; the exact owner may
    // differ between orderings, but each map on its own is deterministic.
    EXPECT_TRUE(batch.alive(batch.owner(t)));
    EXPECT_TRUE(seq.alive(seq.owner(t)));
  }
  // Replaying the identical call sequence reproduces the map bit-for-bit.
  Assignment replay(12, 4);
  replay.rebalance({1, 3});
  for (int t = 0; t < 12; ++t) EXPECT_EQ(replay.owner(t), batch.owner(t));
}

TEST(StateCheckpoint, RoundTripsInteriorBitExactly) {
  const std::string dir = fresh_dir("elastic_ppes");
  Tensor interior({3, 5, 7});
  for (std::int64_t i = 0; i < interior.size(); ++i) {
    interior[i] = 0.5f * static_cast<float>(i) - 3.0f;
  }
  const std::string path = save_task_state(dir, 2, 9, interior);
  EXPECT_TRUE(std::filesystem::exists(path));
  Tensor loaded;
  std::string why;
  ASSERT_TRUE(load_task_state(dir, 2, 9, &loaded, &why)) << why;
  parpde::testing::expect_tensors_equal(interior, loaded);
}

TEST(StateCheckpoint, RejectsMissingAndTornFiles) {
  const std::string dir = fresh_dir("elastic_ppes_torn");
  Tensor out;
  std::string why;
  EXPECT_FALSE(load_task_state(dir, 0, 0, &out, &why));
  EXPECT_FALSE(why.empty());

  Tensor interior({1, 4, 4});
  for (std::int64_t i = 0; i < interior.size(); ++i) {
    interior[i] = static_cast<float>(i);
  }
  const std::string path = save_task_state(dir, 0, 0, interior);
  // Truncate the file mid-payload: the CRC/length envelope must reject it.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_FALSE(load_task_state(dir, 0, 0, &out, &why));

  // Flip one payload byte at full length: caught by the checksum.
  save_task_state(dir, 0, 0, interior);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(std::filesystem::file_size(path)) - 3);
    f.put('\x7f');
  }
  EXPECT_FALSE(load_task_state(dir, 0, 0, &out, &why));
}

TEST(StateCheckpoint, RollbackLineArithmetic) {
  // Snapshot lines with every=3 are steps 2, 5, 8, ...
  EXPECT_EQ(rollback_line(-1, 3), -1);
  EXPECT_EQ(rollback_line(1, 3), -1);  // first line not reached yet
  EXPECT_EQ(rollback_line(2, 3), 2);
  EXPECT_EQ(rollback_line(7, 3), 5);
  EXPECT_EQ(rollback_line(8, 3), 8);
  EXPECT_EQ(rollback_line(100, 1), 100);
  EXPECT_EQ(rollback_line(100, 0), -1);  // snapshots disabled
}

TrainConfig tiny_config() {
  TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;
  cfg.epochs = 2;
  cfg.batch_size = 4;
  cfg.learning_rate = 2e-3;
  cfg.loss = "mse";
  cfg.border = core::BorderMode::kHaloPad;
  return cfg;
}

data::FrameDataset tiny_dataset() {
  euler::EulerConfig ec;
  ec.n = 16;
  euler::SimulateOptions opts;
  opts.num_frames = 13;
  auto sim = euler::simulate(ec, opts);
  return data::FrameDataset(std::move(sim.frames));
}

TEST(ElasticRollout, MatchesDefaultEngineBitExactly) {
  // An M-task report rolled by the elastic engine (healthy run, one task per
  // rank) must reproduce the default overlapped engine's frames bit-for-bit
  // — same per-task arithmetic, same two-phase strip geometry — and its seam
  // health and halo traffic: both go through the same HaloExchange.
  const auto ds = tiny_dataset();
  const TrainConfig cfg = tiny_config();
  const ParallelTrainer trainer(cfg, 4);
  const auto report = trainer.train(ds, ExecutionMode::kConcurrent);

  const auto oracle_run = recorded_rollout(cfg, report, ds.frame(0), 3);
  core::RolloutOptions opts;
  opts.elastic.enabled = true;
  const auto elastic_run = recorded_rollout(cfg, report, ds.frame(0), 3, opts);

  parpde::testing::expect_frames_bit_identical(oracle_run, elastic_run);
  const core::RolloutResult& oracle = oracle_run.result;
  const core::RolloutResult& elastic = elastic_run.result;
  EXPECT_EQ(elastic.degraded_borders, 0);
  EXPECT_EQ(elastic.health.recoveries, 0);
  EXPECT_EQ(elastic.health.assignment_epoch, 0);
  EXPECT_GT(oracle.health.max_interface_residual, 0.0);
  EXPECT_EQ(elastic.health.max_interface_residual,
            oracle.health.max_interface_residual);
  EXPECT_EQ(elastic.halo_bytes, oracle.halo_bytes);
  EXPECT_EQ(elastic.halo_bytes_received, oracle.halo_bytes_received);
}

TEST(ElasticRollout, PlacementIndependenceUnderOverDecomposition) {
  // Train 4 tasks hosted on 2 physical ranks; the weights depend only on the
  // task id (seed stream), so the report equals a 4-rank training run and an
  // elastic rollout on 2 ranks x 2 tasks matches the 4-rank oracle exactly.
  const auto ds = tiny_dataset();
  const TrainConfig cfg = tiny_config();
  const auto packed =
      ParallelTrainer(cfg, 2, 2).train(ds, ExecutionMode::kConcurrent);
  const auto spread =
      ParallelTrainer(cfg, 4, 1).train(ds, ExecutionMode::kConcurrent);
  ASSERT_EQ(packed.ranks, 4);
  ASSERT_EQ(packed.rank_outcomes.size(), spread.rank_outcomes.size());
  for (std::size_t t = 0; t < packed.rank_outcomes.size(); ++t) {
    const auto& pa = packed.rank_outcomes[t].parameters;
    const auto& pb = spread.rank_outcomes[t].parameters;
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t k = 0; k < pa.size(); ++k) {
      parpde::testing::expect_tensors_equal(pa[k], pb[k]);
    }
  }

  const auto oracle = recorded_rollout(cfg, spread, ds.frame(0), 3);
  // Both reports on 2 ranks x 2 tasks, then all 4 tasks on one rank (every
  // neighbour co-resident: each strip is a send to the rank itself).
  const struct {
    const core::ParallelTrainReport* report;
    int tasks_per_rank;
  } inputs[] = {{&packed, 2}, {&spread, 2}, {&spread, 4}};
  for (const auto& in : inputs) {
    SCOPED_TRACE("tasks_per_rank " + std::to_string(in.tasks_per_rank));
    core::RolloutOptions opts;
    opts.elastic.enabled = true;
    opts.elastic.tasks_per_rank = in.tasks_per_rank;
    const auto elastic =
        recorded_rollout(cfg, *in.report, ds.frame(0), 3, opts);
    parpde::testing::expect_frames_bit_identical(oracle, elastic);
    EXPECT_EQ(elastic.result.degraded_borders, 0);
    EXPECT_EQ(elastic.result.health.max_interface_residual,
              oracle.result.health.max_interface_residual);
  }
}

TEST(ElasticRollout, RejectsInvalidConfigurations) {
  const auto ds = tiny_dataset();
  const TrainConfig cfg = tiny_config();
  const auto report =
      ParallelTrainer(cfg, 4).train(ds, ExecutionMode::kConcurrent);
  core::RolloutOptions opts;
  opts.elastic.enabled = true;
  opts.elastic.tasks_per_rank = 3;  // does not divide 4 tasks
  EXPECT_THROW(core::parallel_rollout(cfg, report, ds.frame(0), 2, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace parpde::elastic
