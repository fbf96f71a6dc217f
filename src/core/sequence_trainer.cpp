#include "core/sequence_trainer.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"
#include "util/telemetry.hpp"
#include "util/timer.hpp"

namespace parpde::core {

namespace {

// Stacks frames [first, first+count) into a [count, C, H, W] tensor.
Tensor stack_window(std::span<const Tensor> frames, std::int64_t first,
                    std::int64_t count) {
  std::vector<Tensor> samples;
  samples.reserve(static_cast<std::size_t>(count));
  for (std::int64_t k = 0; k < count; ++k) {
    const Tensor& f = frames[static_cast<std::size_t>(first + k)];
    samples.push_back(f.reshaped({1, f.dim(0), f.dim(1), f.dim(2)}));
  }
  return ops::stack_samples(samples);
}

}  // namespace

SequenceTrainer::SequenceTrainer(const SequenceConfig& config,
                                 std::int64_t channels)
    : config_(config) {
  if (config.window < 2) {
    throw std::invalid_argument("SequenceTrainer: window must be >= 2");
  }
  model_ = std::make_unique<nn::ConvLSTM>(channels, config.hidden_channels,
                                          channels, config.kernel);
  util::Rng rng(config.seed);
  model_->init(rng);
  loss_ = nn::make_loss(config.loss);
  optimizer_ = nn::make_optimizer(config.optimizer, model_->parameters(),
                                  config.learning_rate);
}

TrainResult SequenceTrainer::train(std::span<const Tensor> frames,
                                   std::int64_t train_frames) {
  if (train_frames < config_.window + 1 ||
      train_frames > static_cast<std::int64_t>(frames.size())) {
    throw std::invalid_argument("SequenceTrainer::train: not enough frames");
  }
  TrainResult result;
  util::WallTimer total;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    telemetry::Span epoch_span(
        telemetry::enabled() ? "seq.epoch " + std::to_string(epoch)
                             : std::string(),
        "epoch");
    util::WallTimer epoch_timer;
    double loss_sum = 0.0;
    std::int64_t windows = 0;
    // Non-overlapping truncated-BPTT windows in chronological order (the
    // hidden state restarts at zero at each window boundary).
    for (std::int64_t s = 0; s + config_.window < train_frames;
         s += config_.window) {
      const Tensor inputs = stack_window(frames, s, config_.window);
      const Tensor targets = stack_window(frames, s + 1, config_.window);
      optimizer_->zero_grad();
      const Tensor prediction = model_->forward(inputs);
      Tensor grad;
      loss_sum += loss_->compute(prediction, targets, &grad);
      model_->backward_params(grad);
      optimizer_->step();
      ++windows;
    }
    EpochStats stats;
    stats.loss = loss_sum / static_cast<double>(windows);
    stats.seconds = epoch_timer.seconds();
    result.epochs.push_back(stats);
  }
  result.seconds = total.seconds();
  return result;
}

std::vector<Tensor> SequenceTrainer::rollout(std::span<const Tensor> warmup,
                                             int steps) {
  if (warmup.empty()) {
    throw std::invalid_argument("SequenceTrainer::rollout: empty warmup");
  }
  // The cell API processes whole sequences (state resets per forward call),
  // so the rollout re-feeds the growing sequence each step. Quadratic in the
  // horizon, which is fine for the evaluation horizons used here.
  std::vector<Tensor> sequence(warmup.begin(), warmup.end());
  std::vector<Tensor> predictions;
  predictions.reserve(static_cast<std::size_t>(steps));
  for (int k = 0; k < steps; ++k) {
    const Tensor stacked = stack_window(
        sequence, 0, static_cast<std::int64_t>(sequence.size()));
    const Tensor out = model_->forward(stacked);
    const Tensor last = ops::select_sample(out, out.dim(0) - 1);
    Tensor frame = last.reshaped({last.dim(1), last.dim(2), last.dim(3)});
    predictions.push_back(frame);
    sequence.push_back(std::move(frame));
  }
  return predictions;
}

}  // namespace parpde::core
