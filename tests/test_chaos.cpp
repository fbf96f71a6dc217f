// Chaos soak of the fault-tolerance layer (ctest label `chaos`): a seeded
// fault plan kills a rank mid-training, the trainer restarts it from its
// crash-consistent checkpoint, and the resumed run must be BIT-IDENTICAL to
// an uninterrupted one; inference must then survive sustained halo-message
// loss by degrading the affected borders to the paper's zero-padding
// treatment instead of deadlocking.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "core/inference.hpp"
#include "core/parallel_trainer.hpp"
#include "domain/halo.hpp"
#include "euler/simulate.hpp"
#include "helpers.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/tags.hpp"
#include "util/telemetry.hpp"

namespace parpde::core {
namespace {

using namespace std::chrono_literals;
using parpde::testing::recorded_rollout;

struct PlanGuard {
  explicit PlanGuard(mpi::fault::FaultPlan plan) {
    mpi::fault::install(std::move(plan));
  }
  ~PlanGuard() { mpi::fault::uninstall(); }
  PlanGuard(const PlanGuard&) = delete;
  PlanGuard& operator=(const PlanGuard&) = delete;
};

std::string fresh_dir(const std::string& stem) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / stem;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TrainConfig tiny_config() {
  TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;
  cfg.epochs = 4;
  cfg.batch_size = 4;
  cfg.learning_rate = 2e-3;
  cfg.loss = "mse";
  cfg.border = BorderMode::kHaloPad;
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

void expect_reports_bit_identical(const ParallelTrainReport& a,
                                  const ParallelTrainReport& b) {
  ASSERT_EQ(a.rank_outcomes.size(), b.rank_outcomes.size());
  for (std::size_t r = 0; r < a.rank_outcomes.size(); ++r) {
    const auto& pa = a.rank_outcomes[r].parameters;
    const auto& pb = b.rank_outcomes[r].parameters;
    ASSERT_EQ(pa.size(), pb.size()) << "rank " << r;
    for (std::size_t k = 0; k < pa.size(); ++k) {
      parpde::testing::expect_tensors_equal(pa[k], pb[k]);
    }
  }
}

TEST(Chaos, KilledRankResumesBitIdentically) {
  const auto ds = tiny_dataset();
  const TrainConfig cfg = tiny_config();
  const ParallelTrainer trainer(cfg, 4);

  // Ground truth: the uninterrupted run, no fault tolerance machinery at all.
  const auto baseline = trainer.train(ds, ExecutionMode::kConcurrent);

  // Chaos run: rank 1 dies at the epoch-2 boundary; every rank checkpoints
  // after every epoch; the trainer retrains the casualty from its checkpoint.
  FaultToleranceOptions ft;
  ft.checkpoint_dir = fresh_dir("chaos_ckpt");
  ft.checkpoint_every = 1;
  ParallelTrainReport chaotic;
  {
    mpi::fault::KillSpec kill;
    kill.rank = 1;
    kill.at_epoch = 2;
    PlanGuard guard(mpi::fault::FaultPlan(7).set_kill(kill));
    chaotic = trainer.train(ds, ExecutionMode::kConcurrent, nullptr, &ft);
  }
  ASSERT_EQ(chaotic.retrained_ranks, std::vector<int>{1});

  // The retrained rank's weights — Adam moments, batch-shuffle RNG and
  // early-stop bookkeeping restored from the checkpoint — must be byte-equal
  // to the run that never crashed. The surviving ranks double as the check
  // that checkpointing itself never perturbs training arithmetic.
  expect_reports_bit_identical(baseline, chaotic);
}

TEST(Chaos, IsolatedModeRetrainsKilledRankToo) {
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.epochs = 3;
  const ParallelTrainer trainer(cfg, 4);
  const auto baseline = trainer.train(ds, ExecutionMode::kIsolated);

  FaultToleranceOptions ft;
  ft.checkpoint_dir = fresh_dir("chaos_ckpt_isolated");
  ft.checkpoint_every = 1;
  ParallelTrainReport chaotic;
  {
    mpi::fault::KillSpec kill;
    kill.rank = 2;
    kill.at_epoch = 1;
    PlanGuard guard(mpi::fault::FaultPlan(7).set_kill(kill));
    chaotic = trainer.train(ds, ExecutionMode::kIsolated, nullptr, &ft);
  }
  ASSERT_EQ(chaotic.retrained_ranks, std::vector<int>{2});
  expect_reports_bit_identical(baseline, chaotic);
}

TEST(Chaos, ResumeFlagRestartsFromCompletedCheckpoints) {
  const auto ds = tiny_dataset();
  const TrainConfig cfg = tiny_config();
  const ParallelTrainer trainer(cfg, 4);
  const auto baseline = trainer.train(ds, ExecutionMode::kConcurrent);

  FaultToleranceOptions ft;
  ft.checkpoint_dir = fresh_dir("chaos_ckpt_resume");
  ft.checkpoint_every = 2;
  const auto first = trainer.train(ds, ExecutionMode::kConcurrent, nullptr, &ft);
  expect_reports_bit_identical(baseline, first);

  // A --resume restart over final-epoch checkpoints has nothing left to
  // train: every rank reloads its finished state and the weights come out
  // byte-equal again. (Crash-mid-run resume is exercised by the kill tests.)
  ft.resume = true;
  const auto resumed = trainer.train(ds, ExecutionMode::kConcurrent, nullptr, &ft);
  expect_reports_bit_identical(baseline, resumed);

  // With an empty checkpoint directory --resume degrades to a cold start.
  ft.checkpoint_dir = fresh_dir("chaos_ckpt_cold");
  const auto cold = trainer.train(ds, ExecutionMode::kConcurrent, nullptr, &ft);
  expect_reports_bit_identical(baseline, cold);
}

TEST(Chaos, RolloutDegradesUnderMessageLossInsteadOfHanging) {
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.epochs = 2;
  const ParallelTrainer trainer(cfg, 4);
  const auto report = trainer.train(ds, ExecutionMode::kConcurrent);

  // Healthy rollout first: with the default patience nothing degrades.
  const auto healthy = recorded_rollout(cfg, report, ds.frame(0), 3);
  EXPECT_EQ(healthy.result.degraded_borders, 0);
  EXPECT_TRUE(healthy.result.degraded_detail.empty());
  ASSERT_EQ(healthy.frames.size(), 3u);

  // Now every halo strip rank 1 sends is lost. Its neighbours must exhaust
  // the (deliberately small) retry budget, fall back to zero padding on the
  // facing border, and the rollout must still produce every frame.
  const auto degraded_before =
      telemetry::counter("inference.degraded_borders").value();
  mpi::fault::Rule rule;
  rule.action = mpi::fault::Action::kDrop;
  rule.tag_lo = mpi::tags::kHalo.base;
  rule.tag_hi = mpi::tags::kHalo.last();
  rule.source = 1;
  PlanGuard guard(mpi::fault::FaultPlan(13).add_rule(rule));

  RolloutOptions impatience;
  impatience.halo.recv_timeout = 10ms;
  impatience.halo.max_retries = 2;
  const auto result = recorded_rollout(cfg, report, ds.frame(0), 3, impatience);
  ASSERT_EQ(result.frames.size(), 3u);
  EXPECT_GT(result.result.degraded_borders, 0);
  EXPECT_FALSE(result.result.degraded_detail.empty());
  EXPECT_GT(telemetry::counter("inference.degraded_borders").value(),
            degraded_before);
  for (const auto& [step, frame] : result.frames) {
    for (std::int64_t i = 0; i < frame.size(); ++i) {
      ASSERT_TRUE(std::isfinite(frame[i])) << "non-finite output at " << i;
    }
  }
}

TEST(Chaos, ElasticRolloutAdoptsKilledRankAndStaysBitIdentical) {
  // The headline self-healing scenario: rank 1 dies at a step boundary
  // mid-rollout; the survivors detect it via the heartbeat lease, rebalance
  // the task map, adopt the orphaned task from its PPES snapshot, and the
  // final frames are bit-identical to a rollout that never saw a death.
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.epochs = 2;
  const ParallelTrainer trainer(cfg, 4);
  const auto report = trainer.train(ds, ExecutionMode::kConcurrent);

  const auto oracle = recorded_rollout(cfg, report, ds.frame(0), 4);
  ASSERT_EQ(oracle.frames.size(), 4u);

  RolloutOptions opts;
  opts.elastic.enabled = true;
  opts.elastic.lease = 25ms;
  opts.elastic.missed_leases = 8;
  opts.elastic.state_dir = fresh_dir("chaos_elastic_ppes");
  opts.elastic.state_every = 1;
  parpde::testing::RecordedRollout run;
  {
    mpi::fault::KillSpec kill;
    kill.rank = 1;
    kill.at_step = 2;
    PlanGuard guard(mpi::fault::FaultPlan(7).set_kill(kill));
    run = recorded_rollout(cfg, report, ds.frame(0), 4, opts);
  }

  parpde::testing::expect_frames_bit_identical(oracle, run);
  const RolloutResult& healed = run.result;
  parpde::testing::expect_tensors_equal(healed.frames.at(0),
                                        oracle.frames.at(3));
  // Degrade -> detect -> adopt -> healthy: the blip is visible in the
  // recovery counters, but no border stays degraded.
  EXPECT_EQ(healed.health.recoveries, 1);
  EXPECT_EQ(healed.health.failed_ranks, 1);
  EXPECT_GE(healed.health.adopted_tasks, 1);
  EXPECT_EQ(healed.health.detection_step, 2);
  EXPECT_EQ(healed.health.assignment_epoch, 1);
  EXPECT_GT(healed.health.degraded_during_recovery, 0);
  EXPECT_EQ(healed.degraded_borders, 0);
  EXPECT_EQ(healed.health.degraded_borders, 0);
  // Recovery latency against the lease budget (25 ms x 8): survivors burn one
  // budget before declaring the death (3x allowed for scheduler noise), and
  // the rebalance is local work well under one budget; neither bound drops
  // below a second.
  const double budget_s = 0.025 * 8;
  EXPECT_LE(healed.health.detection_seconds, std::max(1.0, 3.0 * budget_s));
  EXPECT_LE(healed.health.rebalance_seconds, std::max(1.0, budget_s));
}

TEST(Chaos, ElasticRecoveryWithoutSnapshotsRecomputesFromInitial) {
  // No PPES snapshots configured: recovery rolls every task back to the
  // initial frame and recomputes — slower, still bit-identical.
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.epochs = 2;
  const ParallelTrainer trainer(cfg, 4);
  const auto report = trainer.train(ds, ExecutionMode::kConcurrent);
  const auto oracle = recorded_rollout(cfg, report, ds.frame(0), 3);

  RolloutOptions opts;
  opts.elastic.enabled = true;
  opts.elastic.lease = 25ms;
  opts.elastic.missed_leases = 8;
  parpde::testing::RecordedRollout healed;
  {
    mpi::fault::KillSpec kill;
    kill.rank = 2;
    kill.at_step = 1;
    PlanGuard guard(mpi::fault::FaultPlan(11).set_kill(kill));
    healed = recorded_rollout(cfg, report, ds.frame(0), 3, opts);
  }
  // Steps from the rollback line on are delivered twice; the recomputed
  // delivery (kept by the recorder) must equal the undisturbed run.
  parpde::testing::expect_frames_bit_identical(oracle, healed);
  EXPECT_EQ(healed.result.health.recoveries, 1);
  EXPECT_EQ(healed.result.degraded_borders, 0);
}

TEST(Chaos, ElasticNoRecoverDegradesPermanently) {
  // --no-recover keeps the pre-elastic behaviour: the death is detected but
  // the orphaned task stays dark, its borders degrade for good, and the
  // frames still come out finite (dead regions zero-filled).
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.epochs = 2;
  const ParallelTrainer trainer(cfg, 4);
  const auto report = trainer.train(ds, ExecutionMode::kConcurrent);

  RolloutOptions opts;
  opts.elastic.enabled = true;
  opts.elastic.recover = false;
  opts.elastic.lease = 25ms;
  opts.elastic.missed_leases = 8;
  parpde::testing::RecordedRollout run;
  {
    mpi::fault::KillSpec kill;
    kill.rank = 1;
    kill.at_step = 1;
    PlanGuard guard(mpi::fault::FaultPlan(5).set_kill(kill));
    run = recorded_rollout(cfg, report, ds.frame(0), 3, opts);
  }
  const RolloutResult& result = run.result;
  ASSERT_EQ(run.frames.size(), 3u);
  EXPECT_EQ(result.health.recoveries, 0);
  EXPECT_EQ(result.health.failed_ranks, 1);
  EXPECT_EQ(result.health.assignment_epoch, 0);
  EXPECT_GT(result.degraded_borders, 0);
  // Rank 1 posted step 0 before dying at step 1; from step 1 on its task's
  // window of every frame is a zero hole, although the gather buffer held
  // its step-0 block.
  const domain::BlockRange dead =
      domain::Partition(ds.height(), ds.width(), report.dims.px,
                        report.dims.py)
          .block_of_rank(1);
  for (const auto& [step, frame] : run.frames) {
    SCOPED_TRACE("step " + std::to_string(step));
    for (std::int64_t i = 0; i < frame.size(); ++i) {
      ASSERT_TRUE(std::isfinite(frame[i])) << "non-finite output at " << i;
    }
    const Tensor window = domain::extract_interior(frame, dead);
    const bool zero = std::all_of(window.values().begin(),
                                  window.values().end(),
                                  [](float v) { return v == 0.0f; });
    EXPECT_EQ(zero, step >= 1);
  }
}

TEST(Chaos, ElasticTrainingKillRetrainsEveryTaskOfTheDeadRank) {
  // Over-decomposed training: physical rank 1 hosts tasks {1, 3}; killing it
  // mid-training retrains both tasks and the weights still come out
  // bit-identical to the uninterrupted 4-task run.
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.epochs = 3;
  const ParallelTrainer trainer(cfg, 2, /*tasks_per_rank=*/2);
  const auto baseline = trainer.train(ds, ExecutionMode::kConcurrent);
  ASSERT_EQ(baseline.ranks, 4);

  FaultToleranceOptions ft;
  ft.checkpoint_dir = fresh_dir("chaos_elastic_train");
  ft.checkpoint_every = 1;
  ParallelTrainReport chaotic;
  {
    mpi::fault::KillSpec kill;
    kill.rank = 1;  // the kill hook keys on the task id (seed stream)
    kill.at_epoch = 2;
    PlanGuard guard(mpi::fault::FaultPlan(7).set_kill(kill));
    chaotic = trainer.train(ds, ExecutionMode::kConcurrent, nullptr, &ft);
  }
  ASSERT_EQ(chaotic.retrained_ranks, (std::vector<int>{1, 3}));
  ASSERT_EQ(chaotic.failures.size(), 1u);
  EXPECT_EQ(chaotic.failures[0].rank, 1);
  EXPECT_EQ(chaotic.failures[0].epoch, 2);
  expect_reports_bit_identical(baseline, chaotic);
}

TEST(Chaos, FaultMachineryOffIsByteIdenticalToPlainTraining) {
  // Zero-cost-when-off: training with the fault-tolerance options threaded
  // through (but no plan installed and checkpointing disabled) must take the
  // exact same arithmetic path as a plain call.
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.epochs = 2;
  const ParallelTrainer trainer(cfg, 4);
  const auto plain = trainer.train(ds, ExecutionMode::kConcurrent);
  FaultToleranceOptions ft;  // empty dir, resume off
  const auto tolerant =
      trainer.train(ds, ExecutionMode::kConcurrent, nullptr, &ft);
  expect_reports_bit_identical(plain, tolerant);
}

}  // namespace
}  // namespace parpde::core
