// The paper's full workflow (Sec. IV): learn the linearized Euler equations
// for an aeroacoustic Gaussian-pulse problem with domain-decomposed parallel
// training, then run multi-step parallel inference with point-to-point halo
// exchange, and checkpoint the per-subdomain models.
//
// Run: ./examples/aeroacoustic_pulse [--ranks=4] [--grid=48] [--frames=40]
//      [--epochs=12] [--rollout=5] [--checkpoint-dir=/tmp]

#include <cstdio>
#include <filesystem>

#include "core/inference.hpp"
#include "core/metrics.hpp"
#include "core/parallel_trainer.hpp"
#include "euler/simulate.hpp"
#include "nn/serialize.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace parpde;
using namespace parpde::core;

int main(int argc, char** argv) {
  const util::Options opts(argc, argv);
  const int ranks = opts.get_int("ranks", 4);
  const int rollout_steps = opts.get_int("rollout", 5);

  // --- data generation (the role of Ateles in the paper) -------------------
  euler::EulerConfig pde;
  pde.n = opts.get_int("grid", 48);
  pde.pulse_amplitude = 0.5;  // Sec. IV-A
  pde.pulse_halfwidth = 0.3;
  euler::SimulateOptions sim_opts;
  sim_opts.num_frames = opts.get_int("frames", 40);
  sim_opts.steps_per_frame = 4;
  std::printf("[1/4] simulating %d frames of the Gaussian pulse (%dx%d)...\n",
              sim_opts.num_frames, pde.n, pde.n);
  auto sim = euler::simulate(pde, sim_opts);
  const data::FrameDataset dataset(std::move(sim.frames));

  // --- parallel training (Sec. III) ----------------------------------------
  TrainConfig config;  // Table I network, leaky ReLU, ADAM, MAPE
  config.border = BorderMode::kHaloPad;
  config.epochs = opts.get_int("epochs", 12);
  config.loss = opts.get_string("loss", "mape");
  std::printf("[2/4] training %d subdomain networks, border mode %s...\n",
              ranks, border_mode_name(config.border).c_str());
  const ParallelTrainer trainer(config, ranks);
  const auto report = trainer.train(dataset, ExecutionMode::kConcurrent);
  util::Table train_table({"rank", "block (HxW)", "final loss", "time [s]",
                           "bytes sent"});
  for (const auto& outcome : report.rank_outcomes) {
    train_table.add_row(
        {std::to_string(outcome.rank),
         std::to_string(outcome.block.height()) + "x" +
             std::to_string(outcome.block.width()),
         util::Table::fmt_sci(outcome.result.final_loss()),
         util::Table::fmt(outcome.result.seconds, 2),
         std::to_string(outcome.train_bytes_sent)});
  }
  train_table.print("per-rank training (communication-free by construction):");

  // --- validation (Fig. 3 style) -------------------------------------------
  const auto split = dataset.chronological_split(config.train_fraction);
  const SubdomainEnsemble ensemble(config, report, dataset.height(),
                                   dataset.width());
  const auto pair = split.val.front();
  const Tensor prediction = ensemble.predict(dataset.frame(pair));
  const auto per_channel = channel_metrics(prediction, dataset.frame(pair + 1));
  std::printf("\n[3/4] one-step validation (frame %lld):\n",
              static_cast<long long>(pair));
  for (std::int64_t c = 0; c < 4; ++c) {
    std::printf("  %-8s rel-L2 %.4e\n", channel_name(c).c_str(),
                per_channel[c].rel_l2);
  }

  // --- parallel rollout with halo exchange (Sec. III inference) ------------
  std::printf("\n[4/4] %d-step parallel rollout with p2p halo exchange...\n",
              rollout_steps);
  // Score each frame against its truth as the rollout delivers it.
  RolloutOptions rollout_options;
  rollout_options.on_frame = [&](int step, const Tensor& frame) {
    if (pair + step + 1 >= dataset.num_frames()) return;
    std::printf("  step %d: rel-L2 %.4e\n", step + 1,
                overall_metrics(frame, dataset.frame(pair + step + 1)).rel_l2);
  };
  const auto rollout = parallel_rollout(config, report, dataset.frame(pair),
                                        rollout_steps, rollout_options);
  std::printf("  halo traffic: %llu bytes | comm %.4fs | compute %.4fs\n",
              static_cast<unsigned long long>(rollout.halo_bytes),
              rollout.comm_seconds, rollout.compute_seconds);

  // --- checkpoint the per-subdomain models ----------------------------------
  const std::string dir = opts.get_string("checkpoint-dir", "");
  if (!dir.empty()) {
    for (const auto& outcome : report.rank_outcomes) {
      util::Rng rng(config.seed);
      auto model = build_model(config.network, config.border, rng);
      import_parameters(*model, outcome.parameters);
      const std::string path = dir + "/subdomain_rank" +
                               std::to_string(outcome.rank) + ".ckpt";
      nn::save_checkpoint(path, *model);
      std::printf("saved %s\n", path.c_str());
    }
  }
  return 0;
}
