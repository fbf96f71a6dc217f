#pragma once

// Single-network training engine (used by every trainer variant) and the
// sequential baseline of Fig. 4 — one network over the whole domain.

#include <functional>
#include <span>

#include "core/config.hpp"
#include "core/model.hpp"
#include "data/dataset.hpp"
#include "domain/partition.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace parpde::core {

// Per-rank training set: stacked inputs and targets for one subdomain
// (Sec. III, training steps 1-2). For the full domain, use the partition's
// single block.
struct SubdomainTask {
  Tensor inputs;   // [T, C, ih, iw]
  Tensor targets;  // [T, C, th, tw]
};

// Cuts training pairs out of global frames for one block. The input window is
// enlarged by the receptive halo in halo-pad mode; the target is cropped by
// the receptive halo in valid-inner mode.
SubdomainTask make_subdomain_task(std::span<const Tensor> frames,
                                  std::span<const std::int64_t> pair_indices,
                                  const domain::BlockRange& block,
                                  const TrainConfig& config);

struct EpochStats {
  double loss = 0.0;     // mean training loss of the epoch
  double seconds = 0.0;  // wall time of the epoch
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  double seconds = 0.0;  // total training wall time
  [[nodiscard]] double final_loss() const {
    return epochs.empty() ? 0.0 : epochs.back().loss;
  }
};

// Everything a NetworkTrainer needs to continue a run bit-identically after
// a crash: weights, optimizer moments, the batch-shuffle RNG and the epoch
// history. Persisted atomically with a CRC by
// core/train_checkpoint.hpp; a resumed run produces byte-identical weights
// to the uninterrupted one (the chaos tests assert this).
struct TrainerSnapshot {
  int next_epoch = 0;  // first epoch still to run
  std::vector<Tensor> parameters;
  nn::OptimizerState optimizer;
  std::string batcher_rng;  // mt19937_64 textual stream state
  std::vector<EpochStats> epochs;
};

// Periodic checkpoint callback: after every `every_epochs` finished epochs
// (and after the final one) `save` receives a snapshot of the live state.
struct CheckpointHook {
  int every_epochs = 0;  // 0 disables
  std::function<void(const TrainerSnapshot&)> save;
};

// Owns one model + optimizer + loss; trains on a SubdomainTask with
// mini-batch gradient descent (Sec. II configuration).
class NetworkTrainer {
 public:
  // `seed_stream` decorrelates weight init / shuffling across ranks. It also
  // identifies this trainer to the fault injector's epoch-kill directive
  // (== rank in the parallel trainer, 0 for the sequential baseline).
  NetworkTrainer(const TrainConfig& config, std::uint64_t seed_stream);

  // Trains on `task` for `config.epochs` epochs. `resume` continues a
  // checkpointed run from its next epoch with identical arithmetic;
  // `checkpoint` installs the periodic snapshot callback.
  TrainResult train(const SubdomainTask& task,
                    const TrainerSnapshot* resume = nullptr,
                    const CheckpointHook* checkpoint = nullptr);

  // One optimizer step on a single batch; returns the batch loss. Exposed for
  // the data-parallel baseline, which synchronizes weights between steps.
  double train_batch(const Tensor& inputs, const Tensor& targets);

  // Forward pass without gradient bookkeeping side effects that matter here.
  Tensor predict(const Tensor& input);

  nn::Sequential& model() { return *model_; }
  const TrainConfig& config() const { return config_; }

 private:
  TrainConfig config_;
  std::unique_ptr<nn::Sequential> model_;
  nn::LossPtr loss_;
  nn::OptimizerPtr optimizer_;
  std::uint64_t seed_stream_;
  Tensor batch_inputs_;   // reusable ops::gather_samples destination
  Tensor batch_targets_;  // reusable ops::gather_samples destination
};

// Fig. 4's "sequential version": a single network trained on the undecomposed
// domain. Returns the trainer (for inference) and the timing result.
struct SequentialOutcome {
  std::unique_ptr<NetworkTrainer> trainer;
  TrainResult result;
};
SequentialOutcome train_sequential(const data::FrameDataset& dataset,
                                   const TrainConfig& config);

}  // namespace parpde::core
