// Sec. II ablation: optimizer choice. The paper: "After trying different
// available options, we found the ADAM optimizer to have the best performance
// in our case." This bench trains the same subdomain network with ADAM, plain
// SGD, and SGD+momentum and prints the loss-vs-epoch curves.

#include <cmath>
#include <cstdio>
#include <limits>

#include "common.hpp"
#include "core/parallel_trainer.hpp"

using namespace parpde;
using namespace parpde::core;

int main(int argc, char** argv) {
  auto setup = bench::parse_setup(argc, argv);
  const util::Options opts(argc, argv);
  setup.epochs = opts.get_int("epochs", std::max(setup.epochs, 10));
  bench::print_setup("Sec. II ablation: optimizers", setup);

  const auto dataset = bench::generate_dataset(setup);

  struct Run {
    std::string name;
    double lr = 0.0;
    std::vector<double> losses;
    double seconds = 0.0;
  };
  std::vector<Run> runs = {{"adam"}, {"sgd"}, {"momentum"}};

  // Fair comparison: each optimizer gets its best learning rate from a short
  // search grid (the raw MAPE gradients are ~1e4x larger than MSE gradients,
  // so a single shared rate would just show SGD diverging).
  const double grid_lrs[] = {3e-2, 1e-2, 3e-3, 1e-3, 1e-4, 1e-5, 1e-6};
  for (auto& run : runs) {
    double best_loss = std::numeric_limits<double>::infinity();
    for (const double lr : grid_lrs) {
      TrainConfig config = bench::make_train_config(setup);
      config.optimizer = run.name;
      config.learning_rate = lr;
      config.epochs = 2;
      const ParallelTrainer trial(config, 1);
      const auto report = trial.train(dataset, ExecutionMode::kIsolated);
      const double loss = report.mean_final_loss();
      if (std::isfinite(loss) && loss < best_loss) {
        best_loss = loss;
        run.lr = lr;
      }
    }
    std::printf("%-9s picked lr=%g from the search grid\n", run.name.c_str(),
                run.lr);
    std::fflush(stdout);
  }

  for (auto& run : runs) {
    TrainConfig config = bench::make_train_config(setup);
    config.optimizer = run.name;
    config.learning_rate = run.lr;
    // Single-subdomain training (the optimizer comparison does not depend on
    // the decomposition).
    const ParallelTrainer trainer(config, 1);
    const auto report = trainer.train(dataset, ExecutionMode::kIsolated);
    for (const auto& epoch : report.rank_outcomes[0].result.epochs) {
      run.losses.push_back(epoch.loss);
    }
    run.seconds = report.rank_outcomes[0].result.seconds;
    std::printf("%-9s trained: final loss %.6g (%.2fs)\n", run.name.c_str(),
                run.losses.back(), run.seconds);
    std::fflush(stdout);
  }

  util::Table table({"epoch", "adam", "sgd", "momentum"});
  for (std::size_t e = 0; e < runs[0].losses.size(); ++e) {
    table.add_row({std::to_string(e + 1),
                   util::Table::fmt_sci(runs[0].losses[e]),
                   util::Table::fmt_sci(runs[1].losses[e]),
                   util::Table::fmt_sci(runs[2].losses[e])});
  }
  table.print("\nSec. II | " + setup.loss + " training loss per epoch (lr " +
              util::Table::fmt(setup.learning_rate, 4) + "):");
  std::printf("\nExpectation (paper): ADAM converges fastest and lowest.\n");
  return 0;
}
