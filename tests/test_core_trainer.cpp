// Subdomain task construction (all three border modes) and the single-network
// training engine, including the sequential full-domain baseline.

#include <gtest/gtest.h>

#include "core/trainer.hpp"
#include "euler/simulate.hpp"
#include "helpers.hpp"

namespace parpde::core {
namespace {

// Small but realistic training configuration for tests.
TrainConfig tiny_config() {
  TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;
  cfg.epochs = 3;
  cfg.batch_size = 4;
  cfg.learning_rate = 2e-3;
  cfg.loss = "mse";
  return cfg;
}

data::FrameDataset tiny_dataset(int n = 16, int frames = 13) {
  euler::EulerConfig ec;
  ec.n = n;
  euler::SimulateOptions opts;
  opts.num_frames = frames;
  auto sim = euler::simulate(ec, opts);
  return data::FrameDataset(std::move(sim.frames));
}

TEST(SubdomainTask, ZeroPadShapes) {
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.border = BorderMode::kZeroPad;
  const domain::Partition part(16, 16, 2, 2);
  const auto split = ds.chronological_split(0.75);
  const auto task = make_subdomain_task(ds.frames(), split.train,
                                        part.block(0, 0), cfg);
  EXPECT_EQ(task.inputs.shape(),
            (Shape{static_cast<std::int64_t>(split.train.size()), 4, 8, 8}));
  EXPECT_EQ(task.targets.shape(), task.inputs.shape());
}

TEST(SubdomainTask, HaloPadEnlargesInputs) {
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();  // receptive halo = 2
  cfg.border = BorderMode::kHaloPad;
  const domain::Partition part(16, 16, 2, 2);
  const auto split = ds.chronological_split(0.75);
  const auto task = make_subdomain_task(ds.frames(), split.train,
                                        part.block(1, 1), cfg);
  EXPECT_EQ(task.inputs.dim(2), 8 + 2 * 2);
  EXPECT_EQ(task.inputs.dim(3), 8 + 2 * 2);
  EXPECT_EQ(task.targets.dim(2), 8);
  EXPECT_EQ(task.targets.dim(3), 8);
}

TEST(SubdomainTask, ValidInnerCropsTargets) {
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.border = BorderMode::kValidInner;
  const domain::Partition part(16, 16, 2, 2);
  const auto split = ds.chronological_split(0.75);
  const auto task = make_subdomain_task(ds.frames(), split.train,
                                        part.block(0, 1), cfg);
  EXPECT_EQ(task.inputs.dim(2), 8);
  EXPECT_EQ(task.targets.dim(2), 8 - 2 * 2);
}

TEST(SubdomainTask, InputsComeFromFrameTTargetsFromTPlus1) {
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.border = BorderMode::kZeroPad;
  const domain::Partition part(16, 16, 1, 1);
  const std::vector<std::int64_t> pairs = {3};
  const auto task = make_subdomain_task(ds.frames(), pairs, part.block(0, 0),
                                        cfg);
  for (std::int64_t i = 0; i < task.inputs.size(); ++i) {
    EXPECT_EQ(task.inputs[i], ds.frame(3)[i]);
    EXPECT_EQ(task.targets[i], ds.frame(4)[i]);
  }
}

TEST(SubdomainTask, HaloContentMatchesNeighborData) {
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.border = BorderMode::kHaloPad;
  const domain::Partition part(16, 16, 2, 2);
  const std::vector<std::int64_t> pairs = {0};
  // Block (0,0): its east halo must equal block (1,0) data.
  const auto task = make_subdomain_task(ds.frames(), pairs, part.block(0, 0),
                                        cfg);
  const auto& frame = ds.frame(0);
  // input[c, y+2, x+2] == frame[c, y, x] for interior; halo column x=10+2
  // maps to global x=10.
  EXPECT_FLOAT_EQ(task.inputs.at(0, 1, 2 + 3, 2 + 8), frame.at(1, 3, 8));
  // Physical boundary (west of block (0,0)) is zero.
  EXPECT_FLOAT_EQ(task.inputs.at(0, 0, 5, 0), 0.0f);
}

TEST(SubdomainTask, ErrorsOnBadInput) {
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  const domain::Partition part(16, 16, 1, 1);
  const std::vector<std::int64_t> none;
  EXPECT_THROW(
      make_subdomain_task(ds.frames(), none, part.block(0, 0), cfg),
      std::invalid_argument);
  const std::vector<std::int64_t> oob = {100};
  EXPECT_THROW(make_subdomain_task(ds.frames(), oob, part.block(0, 0), cfg),
               std::invalid_argument);
}

TEST(SubdomainTask, ValidInnerRejectsTinyBlocks) {
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.border = BorderMode::kValidInner;
  const domain::Partition part(16, 16, 4, 4);  // 4x4 blocks, crop 2 per side
  const auto split = ds.chronological_split(0.75);
  EXPECT_THROW(make_subdomain_task(ds.frames(), split.train, part.block(0, 0),
                                   cfg),
               std::invalid_argument);
}

TEST(NetworkTrainer, LossDecreasesOverEpochs) {
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.epochs = 6;
  const domain::Partition part(16, 16, 1, 1);
  const auto split = ds.chronological_split(0.75);
  const auto task = make_subdomain_task(ds.frames(), split.train,
                                        part.block(0, 0), cfg);
  NetworkTrainer trainer(cfg, 0);
  const TrainResult result = trainer.train(task);
  ASSERT_EQ(result.epochs.size(), 6u);
  EXPECT_LT(result.final_loss(), result.epochs.front().loss);
  EXPECT_GT(result.seconds, 0.0);
  for (const auto& e : result.epochs) EXPECT_GE(e.seconds, 0.0);
}

TEST(NetworkTrainer, PredictHandlesSingleSampleAndBatch) {
  TrainConfig cfg = tiny_config();
  cfg.border = BorderMode::kZeroPad;  // shape-preserving model
  NetworkTrainer trainer(cfg, 0);
  const Tensor single = trainer.predict(Tensor({4, 10, 10}));
  EXPECT_EQ(single.shape(), (Shape{4, 10, 10}));
  const Tensor batch = trainer.predict(Tensor({3, 4, 10, 10}));
  EXPECT_EQ(batch.shape(), (Shape{3, 4, 10, 10}));
}

TEST(NetworkTrainer, DeterministicGivenSeeds) {
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  const domain::Partition part(16, 16, 1, 1);
  const auto split = ds.chronological_split(0.75);
  const auto task = make_subdomain_task(ds.frames(), split.train,
                                        part.block(0, 0), cfg);
  NetworkTrainer a(cfg, 5), b(cfg, 5);
  const auto ra = a.train(task);
  const auto rb = b.train(task);
  EXPECT_DOUBLE_EQ(ra.final_loss(), rb.final_loss());
  const auto pa = export_parameters(a.model());
  const auto pb = export_parameters(b.model());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    parpde::testing::expect_tensors_equal(pa[i], pb[i]);
  }
}

TEST(SequentialBaseline, TrainsOnFullDomain) {
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.epochs = 2;
  const SequentialOutcome outcome = train_sequential(ds, cfg);
  ASSERT_TRUE(outcome.trainer != nullptr);
  EXPECT_EQ(outcome.result.epochs.size(), 2u);
  EXPECT_TRUE(std::isfinite(outcome.result.final_loss()));
}

}  // namespace
}  // namespace parpde::core
