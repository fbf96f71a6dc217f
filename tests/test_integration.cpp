// End-to-end pipeline tests: simulate -> decompose -> train in parallel ->
// validate one-step predictions -> roll out with halo exchange. These are the
// paper's Fig. 3 / Fig. 4 workflows at test scale.

#include <gtest/gtest.h>

#include "core/data_parallel_trainer.hpp"
#include "core/inference.hpp"
#include "core/metrics.hpp"
#include "core/parallel_trainer.hpp"
#include "domain/halo.hpp"
#include "euler/simulate.hpp"
#include "helpers.hpp"

namespace parpde::core {
namespace {

struct Pipeline {
  euler::EulerConfig euler_config;
  data::FrameDataset dataset;
  TrainConfig train_config;
};

Pipeline make_pipeline(int n, int frames, BorderMode mode) {
  euler::EulerConfig ec;
  ec.n = n;
  euler::SimulateOptions opts;
  opts.num_frames = frames;
  // Well-separated frames: the per-step change is large enough that the
  // trivial persistence baseline is genuinely beatable at test scale.
  opts.steps_per_frame = 6;
  auto sim = euler::simulate(ec, opts);

  TrainConfig tc;
  tc.network.channels = {4, 8, 4};
  tc.network.kernel = 3;
  tc.border = mode;
  tc.loss = "mse";
  tc.epochs = 8;
  tc.batch_size = 8;
  tc.learning_rate = 4e-3;
  tc.train_fraction = 0.75;
  return Pipeline{ec, data::FrameDataset(std::move(sim.frames)), tc};
}

// Validation one-step error of a trained parallel model, assembled over all
// subdomains.
double one_step_val_error(const Pipeline& p, const ParallelTrainReport& report) {
  const auto split = p.dataset.chronological_split(p.train_config.train_fraction);
  const domain::Partition part(p.dataset.height(), p.dataset.width(),
                               report.dims.px, report.dims.py);
  const std::int64_t halo = p.train_config.border == BorderMode::kHaloPad
                                ? p.train_config.network.receptive_halo()
                                : 0;
  double total = 0.0;
  int count = 0;
  for (const auto pair : split.val) {
    Tensor assembled({4, p.dataset.height(), p.dataset.width()});
    for (int r = 0; r < report.ranks; ++r) {
      util::Rng rng(p.train_config.seed);
      auto model = build_model(p.train_config.network, p.train_config.border, rng);
      import_parameters(
          *model, report.rank_outcomes[static_cast<std::size_t>(r)].parameters);
      const auto block = part.block_of_rank(r);
      Tensor input = domain::extract_with_halo(p.dataset.frame(pair), block, halo);
      input.reshape({1, input.dim(0), input.dim(1), input.dim(2)});
      Tensor out = model->forward(input);
      out.reshape({out.dim(1), out.dim(2), out.dim(3)});
      domain::insert_interior(assembled, block, out);
    }
    total += overall_metrics(assembled, p.dataset.frame(pair + 1)).rel_l2;
    ++count;
  }
  return total / count;
}

TEST(Integration, ParallelTrainingLearnsOneStepPrediction) {
  // Fig. 3 at test scale: after training, one-step predictions must be far
  // better than the trivial "no change" persistence baseline.
  auto p = make_pipeline(16, 17, BorderMode::kHaloPad);
  p.train_config.epochs = 150;
  p.train_config.learning_rate = 1e-2;
  const ParallelTrainer trainer(p.train_config, 4);
  const auto report = trainer.train(p.dataset, ExecutionMode::kIsolated);
  const double err = one_step_val_error(p, report);

  // Persistence baseline on the same validation pairs.
  const auto split = p.dataset.chronological_split(p.train_config.train_fraction);
  double persistence = 0.0;
  for (const auto pair : split.val) {
    persistence +=
        overall_metrics(p.dataset.frame(pair), p.dataset.frame(pair + 1)).rel_l2;
  }
  persistence /= static_cast<double>(split.val.size());

  EXPECT_TRUE(std::isfinite(err));
  EXPECT_LT(err, persistence);
}

TEST(Integration, ZeroPadModeAlsoLearns) {
  auto p = make_pipeline(16, 13, BorderMode::kZeroPad);
  p.train_config.epochs = 5;
  const ParallelTrainer trainer(p.train_config, 4);
  const auto report = trainer.train(p.dataset, ExecutionMode::kIsolated);
  EXPECT_TRUE(std::isfinite(report.mean_final_loss()));
  const double err = one_step_val_error(p, report);
  EXPECT_TRUE(std::isfinite(err));
  EXPECT_LT(err, 1.0);
}

TEST(Integration, TrainedModelRollsOutWithHaloExchange) {
  auto p = make_pipeline(16, 13, BorderMode::kHaloPad);
  p.train_config.epochs = 4;
  const ParallelTrainer trainer(p.train_config, 4);
  const auto report = trainer.train(p.dataset, ExecutionMode::kIsolated);

  const auto split = p.dataset.chronological_split(p.train_config.train_fraction);
  const auto first_val = split.val.front();
  const int steps = 3;
  const auto rollout = parpde::testing::recorded_rollout(
      p.train_config, report, p.dataset.frame(first_val), steps);
  ASSERT_EQ(rollout.frames.size(), static_cast<std::size_t>(steps));
  EXPECT_GT(rollout.result.halo_bytes, 0u);

  std::vector<double> curve;
  for (const auto& [step, frame] : rollout.frames) {
    curve.push_back(
        overall_metrics(frame, p.dataset.frame(first_val + step + 1)).rel_l2);
  }
  for (const double e : curve) EXPECT_TRUE(std::isfinite(e));
  // Sec. IV-B: "the accumulative error decreases the accuracy" — later steps
  // are no better than the first.
  EXPECT_GE(curve.back(), curve.front() * 0.5);
}

TEST(Integration, MAPETrainingOnBackgroundedFieldsConverges) {
  // The paper's actual setup: raw fields including the constant background,
  // MAPE loss, ADAM. The velocity channels cross zero, so the percentage
  // values are dominated by the stabilization floor; the meaningful check is
  // that training drives the loss down hard.
  auto p = make_pipeline(16, 13, BorderMode::kHaloPad);
  p.train_config.loss = "mape";
  p.train_config.epochs = 12;
  const ParallelTrainer trainer(p.train_config, 4);
  const auto report = trainer.train(p.dataset, ExecutionMode::kIsolated);
  for (const auto& outcome : report.rank_outcomes) {
    EXPECT_LT(outcome.result.final_loss(),
              0.5 * outcome.result.epochs.front().loss)
        << "rank " << outcome.rank;
  }
}

TEST(Integration, DataParallelBaselineLearnsButCommunicates) {
  auto p = make_pipeline(16, 13, BorderMode::kZeroPad);
  p.train_config.epochs = 3;
  const DataParallelTrainer dp(p.train_config, 4, 1);
  const auto report = dp.train(p.dataset);
  EXPECT_TRUE(std::isfinite(report.final_loss()));
  EXPECT_GT(report.comm_bytes, 0u);
}

TEST(Integration, SixteenRankTrainingOnLargerGrid) {
  auto p = make_pipeline(32, 9, BorderMode::kZeroPad);
  p.train_config.epochs = 2;
  const ParallelTrainer trainer(p.train_config, 16);
  const auto report = trainer.train(p.dataset, ExecutionMode::kConcurrent);
  EXPECT_EQ(report.rank_outcomes.size(), 16u);
  for (const auto& outcome : report.rank_outcomes) {
    EXPECT_EQ(outcome.train_bytes_sent, 0u);
    EXPECT_TRUE(std::isfinite(outcome.result.final_loss()));
  }
}

}  // namespace
}  // namespace parpde::core
