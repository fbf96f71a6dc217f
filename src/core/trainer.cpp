#include "core/trainer.hpp"

#include <stdexcept>

#include "data/batcher.hpp"
#include "domain/halo.hpp"
#include "minimpi/fault.hpp"
#include "tensor/ops.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace parpde::core {

SubdomainTask make_subdomain_task(std::span<const Tensor> frames,
                                  std::span<const std::int64_t> pair_indices,
                                  const domain::BlockRange& block,
                                  const TrainConfig& config) {
  if (frames.size() < 2 || pair_indices.empty()) {
    throw std::invalid_argument("make_subdomain_task: no training pairs");
  }
  const std::int64_t halo = config.network.receptive_halo();
  const std::int64_t input_halo =
      config.border == BorderMode::kHaloPad ? halo : 0;
  const std::int64_t target_crop =
      config.border == BorderMode::kValidInner ? halo : 0;
  if (block.height() <= 2 * target_crop || block.width() <= 2 * target_crop) {
    throw std::invalid_argument(
        "make_subdomain_task: block too small for valid-inner targets");
  }

  std::vector<Tensor> inputs;
  std::vector<Tensor> targets;
  inputs.reserve(pair_indices.size());
  targets.reserve(pair_indices.size());
  for (const auto pair : pair_indices) {
    if (pair < 0 || pair + 1 >= static_cast<std::int64_t>(frames.size())) {
      throw std::invalid_argument("make_subdomain_task: pair index out of range");
    }
    Tensor in = domain::extract_with_halo(frames[static_cast<std::size_t>(pair)],
                                          block, input_halo);
    domain::BlockRange target_block = block;
    target_block.h0 += target_crop;
    target_block.h1 -= target_crop;
    target_block.w0 += target_crop;
    target_block.w1 -= target_crop;
    Tensor out = domain::extract_interior(
        frames[static_cast<std::size_t>(pair) + 1], target_block);
    in.reshape({1, in.dim(0), in.dim(1), in.dim(2)});
    out.reshape({1, out.dim(0), out.dim(1), out.dim(2)});
    inputs.push_back(std::move(in));
    targets.push_back(std::move(out));
  }
  SubdomainTask task;
  task.inputs = ops::stack_samples(inputs);
  task.targets = ops::stack_samples(targets);
  return task;
}

NetworkTrainer::NetworkTrainer(const TrainConfig& config,
                               std::uint64_t seed_stream)
    : config_(config), seed_stream_(seed_stream) {
  util::Rng rng = util::Rng(config.seed).fork(seed_stream);
  model_ = build_model(config.network, config.border, rng);
  if (config.loss == "wmse") {
    loss_ = std::make_unique<nn::WeightedMSELoss>(config.channel_weights);
  } else {
    loss_ = nn::make_loss(config.loss);
  }
  optimizer_ = nn::make_optimizer(config.optimizer, model_->parameters(),
                                  config.learning_rate);
}

double NetworkTrainer::train_batch(const Tensor& inputs, const Tensor& targets) {
  optimizer_->zero_grad();
  const Tensor prediction = model_->forward(inputs);
  Tensor grad;
  const double loss = loss_->compute(prediction, targets, &grad);
  model_->backward_params(grad);
  optimizer_->step();
  return loss;
}

TrainResult NetworkTrainer::train(const SubdomainTask& task,
                                  const TrainerSnapshot* resume,
                                  const CheckpointHook* checkpoint) {
  if (task.inputs.dim(0) != task.targets.dim(0)) {
    throw std::invalid_argument("NetworkTrainer::train: sample count mismatch");
  }
  data::Batcher batcher(task.inputs.dim(0), config_.batch_size,
                        config_.seed ^ (seed_stream_ * 0x9E3779B9ull));
  TrainResult result;
  util::WallTimer total;

  int start_epoch = 0;
  if (resume != nullptr) {
    // Restore every piece of mutable training state, so the remaining epochs
    // run the exact arithmetic the uninterrupted run would have.
    import_parameters(*model_, resume->parameters);
    optimizer_->import_state(resume->optimizer);
    batcher.restore_rng(resume->batcher_rng);
    start_epoch = resume->next_epoch;
    result.epochs = resume->epochs;
  }

  auto make_snapshot = [&](int completed_epoch) {
    TrainerSnapshot snap;
    snap.next_epoch = completed_epoch + 1;
    snap.parameters = export_parameters(*model_);
    snap.optimizer = optimizer_->export_state();
    snap.batcher_rng = batcher.rng_state();
    snap.epochs = result.epochs;
    return snap;
  };

  static telemetry::Counter& epoch_count = telemetry::counter("train.epochs");
  static telemetry::Counter& batch_count = telemetry::counter("train.batches");
  for (int epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    // Fault injection: a kill:rank=R,epoch=E directive fires here, after the
    // previous epoch's checkpoint landed — the crash point the restart tests
    // exercise.
    mpi::fault::check_kill_epoch(static_cast<int>(seed_stream_), epoch);
    telemetry::Span epoch_span(
        telemetry::enabled() ? "epoch " + std::to_string(epoch) : std::string(),
        "epoch");
    epoch_count.add(1);
    util::WallTimer epoch_timer;
    double loss_sum = 0.0;
    std::int64_t batches = 0;
    for (const auto& batch : batcher.next_epoch()) {
      telemetry::Span batch_span("train.batch", "epoch");
      batch_count.add(1);
      ops::gather_samples(task.inputs, batch, batch_inputs_);
      ops::gather_samples(task.targets, batch, batch_targets_);
      loss_sum += train_batch(batch_inputs_, batch_targets_);
      ++batches;
    }
    EpochStats stats;
    stats.loss = loss_sum / static_cast<double>(batches);
    stats.seconds = epoch_timer.seconds();
    result.epochs.push_back(stats);

    if (checkpoint != nullptr && checkpoint->every_epochs > 0 &&
        checkpoint->save &&
        ((epoch + 1) % checkpoint->every_epochs == 0 ||
         epoch + 1 == config_.epochs)) {
      checkpoint->save(make_snapshot(epoch));
    }
  }
  result.seconds = total.seconds();
  return result;
}

Tensor NetworkTrainer::predict(const Tensor& input) {
  if (input.ndim() == 3) {
    Tensor batched = input.reshaped({1, input.dim(0), input.dim(1), input.dim(2)});
    Tensor out = model_->forward(batched);
    return out.reshaped({out.dim(1), out.dim(2), out.dim(3)});
  }
  return model_->forward(input);
}

SequentialOutcome train_sequential(const data::FrameDataset& dataset,
                                   const TrainConfig& config) {
  const auto split = dataset.chronological_split(config.train_fraction);
  // One block covering the whole grid.
  const domain::Partition partition(dataset.height(), dataset.width(), 1, 1);
  const auto task = make_subdomain_task(dataset.frames(), split.train,
                                        partition.block(0, 0), config);
  // Single trainer, single caller: it may use the full intra-rank budget.
  util::ThreadPool::configure_global(
      util::ThreadPool::resolve_workers(config.num_threads, 1));
  SequentialOutcome outcome;
  outcome.trainer = std::make_unique<NetworkTrainer>(config, /*seed_stream=*/0);
  outcome.result = outcome.trainer->train(task);
  return outcome;
}

}  // namespace parpde::core
