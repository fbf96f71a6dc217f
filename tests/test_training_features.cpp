// Deconv border mode (paper approach 4).

#include <gtest/gtest.h>

#include "core/inference.hpp"
#include "core/parallel_trainer.hpp"
#include "euler/simulate.hpp"
#include "helpers.hpp"

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

}  // namespace
}  // namespace parpde::core
