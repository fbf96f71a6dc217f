// Fig. 3 reproduction: one-step prediction accuracy of the domain-decomposed
// networks against the solver's validation frames, per physical channel
// (pressure, density, vel-x, vel-y), plus the centerline profile comparison
// and the Sec. IV-B rollout error-accumulation series.
//
// Paper claim: "a very good agreement between the prediction and target data
// ... small discrepancies in the velocities ... the accuracy drops after one
// time step prediction."
//
// Two variants are reported:
//   A. paper-faithful — raw fields (background included), MAPE loss;
//   B. normalized    — per-channel standardized fields, MSE loss.
// Variant A reproduces the paper's qualitative outcome (excellent pressure/
// density, weaker velocities); variant B closes the velocity gap (see
// EXPERIMENTS.md).
//
// Flags: --ranks=N --grid=N --frames=N --epochs=N --variant=paper|normalized
// PARPDE_FULL=1 switches to the paper's 256^2 / 1500-frame scale.

#include <cstdio>
#include <optional>

#include "common.hpp"
#include "core/inference.hpp"
#include "core/metrics.hpp"
#include "core/parallel_trainer.hpp"
#include "util/stats.hpp"

using namespace parpde;
using namespace parpde::core;

namespace {

void run_variant(const std::string& name, const data::FrameDataset& train_view,
                 const data::FrameDataset& raw, const TrainConfig& config,
                 const data::ChannelNormalizer* normalizer, int ranks) {
  std::printf("\n--- variant: %s (loss %s) ---\n", name.c_str(),
              config.loss.c_str());
  std::printf("training %d subdomain networks (%d epochs each)...\n", ranks,
              config.epochs);
  std::fflush(stdout);
  const ParallelTrainer trainer(config, ranks);
  const auto report = trainer.train(train_view, ExecutionMode::kIsolated);
  std::printf("training done: mean final %s loss = %.6g, modeled parallel "
              "time = %.2fs\n",
              config.loss.c_str(), report.mean_final_loss(),
              report.modeled_parallel_seconds());

  const SubdomainEnsemble ensemble(config, report, train_view.height(),
                                   train_view.width());
  const auto split = train_view.chronological_split(config.train_fraction);

  auto to_physical = [&](const Tensor& t) {
    return normalizer != nullptr ? normalizer->invert(t) : t;
  };

  // --- per-channel one-step metrics over the validation set (Fig. 3) -------
  std::vector<util::RunningStat> mape(4), rmse(4), maxe(4), rel(4);
  for (const auto pair : split.val) {
    const Tensor pred = to_physical(ensemble.predict(train_view.frame(pair)));
    const auto per_channel = channel_metrics(pred, raw.frame(pair + 1));
    for (std::size_t c = 0; c < 4; ++c) {
      mape[c].add(per_channel[c].mape);
      rmse[c].add(per_channel[c].rmse);
      maxe[c].add(per_channel[c].max_err);
      rel[c].add(per_channel[c].rel_l2);
    }
  }
  util::Table fig3({"channel", "MAPE[%]", "RMSE", "max|err|", "rel-L2"});
  for (std::int64_t c = 0; c < 4; ++c) {
    fig3.add_row({channel_name(c), util::Table::fmt(mape[c].mean(), 3),
                  util::Table::fmt_sci(rmse[c].mean()),
                  util::Table::fmt_sci(maxe[c].mean()),
                  util::Table::fmt_sci(rel[c].mean())});
  }
  fig3.print("Fig. 3 | one-step prediction vs target, validation mean (" +
             std::to_string(split.val.size()) + " frames):");

  // --- centerline profile of the first validation pair ---------------------
  const auto pair0 = split.val.front();
  const Tensor pred0 = to_physical(ensemble.predict(train_view.frame(pair0)));
  const auto pred_line = centerline(pred0, euler::kPressure);
  const auto target_line = centerline(raw.frame(pair0 + 1), euler::kPressure);
  util::Table profile({"x-index", "target p", "predicted p", "abs err"});
  const std::size_t stride = std::max<std::size_t>(1, pred_line.size() / 8);
  for (std::size_t i = 0; i < pred_line.size(); i += stride) {
    profile.add_row({std::to_string(i), util::Table::fmt(target_line[i], 5),
                     util::Table::fmt(pred_line[i], 5),
                     util::Table::fmt_sci(std::abs(pred_line[i] - target_line[i]))});
  }
  profile.print("\nFig. 3 | pressure centerline, first validation frame:");

  // --- rollout error accumulation (Sec. IV-B) ------------------------------
  const int max_steps = std::min<int>(8, static_cast<int>(split.val.size()) - 1);
  if (max_steps >= 2) {
    // Each frame is scored against its truth as the rollout delivers it.
    std::vector<double> curve(static_cast<std::size_t>(max_steps));
    RolloutOptions options;
    options.on_frame = [&](int step, const Tensor& frame) {
      curve[static_cast<std::size_t>(step)] =
          overall_metrics(to_physical(frame), raw.frame(pair0 + step + 1))
              .rel_l2;
    };
    const auto rollout = parallel_rollout(config, report,
                                          train_view.frame(pair0), max_steps,
                                          options);
    util::Table growth({"rollout step", "rel-L2 error"});
    for (std::size_t k = 0; k < curve.size(); ++k) {
      growth.add_row({std::to_string(k + 1), util::Table::fmt_sci(curve[k])});
    }
    growth.print(
        "\nSec. IV-B | autoregressive rollout error (accumulates with step):");
    std::printf("halo traffic during rollout: %llu bytes, comm %.4fs, "
                "compute %.4fs\n",
                static_cast<unsigned long long>(rollout.halo_bytes),
                rollout.comm_seconds, rollout.compute_seconds);
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto setup = bench::parse_setup(argc, argv);
  const util::Options opts(argc, argv);
  if (!opts.has("epochs") && !setup.full_scale) setup.epochs = 60;
  const int ranks = opts.get_int("ranks", 4);
  const std::string which = opts.get_string("variant", "both");
  bench::print_setup("Fig. 3: one-step prediction accuracy", setup);
  std::printf("ranks: %d\n", ranks);

  const auto raw = bench::generate_dataset(setup);

  if (which == "paper" || which == "both") {
    TrainConfig config = bench::make_train_config(setup);
    run_variant("paper-faithful (raw fields)", raw, raw, config, nullptr, ranks);
  }
  if (which == "normalized" || which == "both") {
    const auto normalized = bench::normalize_dataset(raw, setup.train_fraction);
    TrainConfig config = bench::make_train_config(setup);
    config.loss = "mse";
    config.learning_rate = std::max(setup.learning_rate, 5e-3);
    run_variant("normalized (per-channel standardized)", normalized.dataset,
                raw, config, &normalized.normalizer, ranks);
  }
  return 0;
}
