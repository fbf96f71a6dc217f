// Deconv border mode (paper approach 4), learning-rate decay schedules, and
// gradient clipping.

#include <gtest/gtest.h>

#include "core/inference.hpp"
#include "core/parallel_trainer.hpp"
#include "euler/simulate.hpp"
#include "helpers.hpp"
#include "nn/optimizer.hpp"

namespace parpde::core {
namespace {

TEST(DeconvMode, NameRoundtrip) {
  EXPECT_EQ(border_mode_name(BorderMode::kDeconv), "deconv");
  EXPECT_EQ(border_mode_from_string("deconv"), BorderMode::kDeconv);
  EXPECT_EQ(border_mode_from_string("transpose"), BorderMode::kDeconv);
}

TEST(DeconvMode, ModelPreservesSpatialSize) {
  const NetworkConfig net;  // Table I
  util::Rng rng(1);
  auto model = build_model(net, BorderMode::kDeconv, rng);
  EXPECT_EQ(model_shrink(net, BorderMode::kDeconv), 0);
  const Tensor y = model->forward(Tensor({1, 4, 20, 20}));
  EXPECT_EQ(y.shape(), (Shape{1, 4, 20, 20}));
}

TEST(DeconvMode, HeadKernelMatchesStackShrink) {
  // 3 unpadded 5x5 convs shrink by 6 per side; the transpose head must grow
  // by exactly that: kernel 13.
  NetworkConfig net;  // 4 layers
  util::Rng rng(2);
  auto model = build_model(net, BorderMode::kDeconv, rng);
  // Layers: 3x (conv + act) + 1 transpose head = 7 modules.
  EXPECT_EQ(model->layer_count(), 7u);
  EXPECT_NE(model->layer(6).name().find("conv_transpose2d"), std::string::npos);
  EXPECT_NE(model->layer(6).name().find("k=13"), std::string::npos);
}

TEST(DeconvMode, RejectsSingleLayerNetworks) {
  NetworkConfig net;
  net.channels = {4, 4};
  util::Rng rng(3);
  EXPECT_THROW(build_model(net, BorderMode::kDeconv, rng),
               std::invalid_argument);
}

TEST(DeconvMode, TrainsEndToEnd) {
  euler::EulerConfig ec;
  ec.n = 16;
  euler::SimulateOptions opts;
  opts.num_frames = 11;
  auto sim = euler::simulate(ec, opts);
  const data::FrameDataset ds(std::move(sim.frames));

  TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;
  cfg.border = BorderMode::kDeconv;
  cfg.loss = "mse";
  cfg.epochs = 4;
  cfg.batch_size = 4;
  const ParallelTrainer trainer(cfg, 4);
  const auto report = trainer.train(ds, ExecutionMode::kIsolated);
  EXPECT_TRUE(std::isfinite(report.mean_final_loss()));
  EXPECT_LT(report.rank_outcomes[0].result.final_loss(),
            report.rank_outcomes[0].result.epochs.front().loss * 2.0);

  // Size-preserving: rollout works without halo exchange.
  const auto rollout =
      parpde::testing::recorded_rollout(cfg, report, ds.frame(8), 2);
  ASSERT_EQ(rollout.frames.size(), 2u);
  EXPECT_EQ(rollout.result.halo_bytes, 0u);
  EXPECT_EQ(rollout.frames.at(0).shape(), (Shape{4, 16, 16}));
}

struct ScalarParam {
  Tensor value{Shape{1}};
  Tensor grad{Shape{1}};
  std::vector<nn::ParamRef> refs() { return {{&value, &grad, "w"}}; }
};

TEST(LearningRateControl, SetterValidatesAndApplies) {
  ScalarParam p;
  nn::SGD opt(p.refs(), 0.1);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.1);
  opt.set_learning_rate(0.05);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.05);
  EXPECT_THROW(opt.set_learning_rate(0.0), std::invalid_argument);

  p.value[0] = 1.0f;
  p.grad[0] = 1.0f;
  opt.step();
  EXPECT_NEAR(p.value[0], 0.95f, 1e-6);  // uses the updated rate
}

TEST(LearningRateControl, StepDecayFiresOnSchedule) {
  ScalarParam p;
  nn::Adam opt(p.refs(), 1.0);
  nn::StepDecaySchedule schedule(0.5, 2);
  schedule.advance(opt);  // epoch 1: no decay
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 1.0);
  schedule.advance(opt);  // epoch 2: halve
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.5);
  schedule.advance(opt);
  schedule.advance(opt);  // epoch 4: halve again
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.25);
  EXPECT_EQ(schedule.epochs_seen(), 4);
  EXPECT_THROW(nn::StepDecaySchedule(0.0, 1), std::invalid_argument);
  EXPECT_THROW(nn::StepDecaySchedule(0.5, 0), std::invalid_argument);
}

TEST(LearningRateControl, DecayInsideTrainerReducesRate) {
  euler::EulerConfig ec;
  ec.n = 12;
  euler::SimulateOptions opts;
  opts.num_frames = 9;
  auto sim = euler::simulate(ec, opts);
  const data::FrameDataset ds(std::move(sim.frames));

  TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;
  cfg.border = BorderMode::kZeroPad;
  cfg.loss = "mse";
  cfg.epochs = 4;
  cfg.learning_rate = 1e-2;
  cfg.lr_decay_factor = 0.1;
  cfg.lr_decay_every = 2;
  const auto split = ds.chronological_split(0.75);
  const domain::Partition part(12, 12, 1, 1);
  const auto task =
      make_subdomain_task(ds.frames(), split.train, part.block(0, 0), cfg);
  NetworkTrainer trainer(cfg, 0);
  trainer.train(task);
  // 4 epochs with decay every 2: two decays of 0.1 each.
  EXPECT_NEAR(trainer.optimizer().learning_rate(), 1e-4, 1e-10);
}

TEST(GradientClipping, RescalesLargeGradients) {
  ScalarParam a;
  nn::SGD opt(a.refs(), 0.1);
  a.grad[0] = 30.0f;
  const double norm = opt.clip_grad_norm(3.0);
  EXPECT_NEAR(norm, 30.0, 1e-6);
  EXPECT_NEAR(a.grad[0], 3.0f, 1e-5);
}

TEST(GradientClipping, LeavesSmallGradientsAlone) {
  ScalarParam a;
  nn::SGD opt(a.refs(), 0.1);
  a.grad[0] = 0.5f;
  const double norm = opt.clip_grad_norm(3.0);
  EXPECT_NEAR(norm, 0.5, 1e-6);
  EXPECT_FLOAT_EQ(a.grad[0], 0.5f);
  EXPECT_THROW(opt.clip_grad_norm(0.0), std::invalid_argument);
}

TEST(GradientClipping, StabilizesRawMAPETraining) {
  // Raw-field MAPE with a hot learning rate diverges without clipping and
  // survives with it.
  euler::EulerConfig ec;
  ec.n = 12;
  euler::SimulateOptions opts;
  opts.num_frames = 9;
  auto sim = euler::simulate(ec, opts);
  const data::FrameDataset ds(std::move(sim.frames));

  auto run = [&](double clip) {
    TrainConfig cfg;
    cfg.network.channels = {4, 6, 4};
    cfg.network.kernel = 3;
    cfg.border = BorderMode::kZeroPad;
    cfg.loss = "mape";
    cfg.optimizer = "sgd";
    cfg.learning_rate = 1e-3;
    cfg.epochs = 5;
    cfg.clip_grad_norm = clip;
    const auto outcome = train_sequential(ds, cfg);
    return outcome.result.final_loss();
  };
  const double unclipped = run(0.0);
  const double clipped = run(1.0);
  EXPECT_TRUE(std::isfinite(clipped));
  // The unclipped run blows up (or at minimum is much worse).
  EXPECT_TRUE(!std::isfinite(unclipped) || unclipped > 10.0 * clipped);
}

}  // namespace
}  // namespace parpde::core
