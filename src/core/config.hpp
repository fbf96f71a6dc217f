#pragma once

// Configuration of the paper's training scheme: the Table I network and the
// training hyperparameters of Sec. II, plus the subdomain border strategy of
// Sec. III.

#include <cstdint>
#include <string>
#include <vector>

namespace parpde::core {

// How the conv dimension mismatch at subdomain borders is handled (Sec. III).
enum class BorderMode {
  kZeroPad,     // approach 1: zero padding inside every conv layer
  kHaloPad,     // approach 2: enlarge the input with neighbour data (overlap)
  kValidInner,  // approach 3: compare only the inner (N-k+1)^2 points
  kDeconv,      // approach 4: unpadded convs + transpose-conv head restoring
                // the size ("adding de-convolutional layers or the transpose
                // convolution" — the paper's under-investigation option)
};

[[nodiscard]] std::string border_mode_name(BorderMode mode);
[[nodiscard]] BorderMode border_mode_from_string(const std::string& name);

// Table I: four conv layers, channels 4 -> 6 -> 16 -> 6 -> 4, 5x5 kernels.
struct NetworkConfig {
  std::vector<std::int64_t> channels = {4, 6, 16, 6, 4};
  std::int64_t kernel = 5;
  float leaky_slope = 0.01f;  // Eq. (2), fixed epsilon
  // Apply the activation after the last conv too? The paper's Table I pads
  // every layer and reports leaky ReLU throughout; a linear head is the
  // standard regression choice and is our default (see EXPERIMENTS.md).
  bool final_activation = false;

  [[nodiscard]] int layers() const { return static_cast<int>(channels.size()) - 1; }
  // Receptive-field radius of the stacked convs: layers * (kernel-1)/2.
  [[nodiscard]] std::int64_t receptive_halo() const {
    return static_cast<std::int64_t>(layers()) * (kernel - 1) / 2;
  }
};

struct TrainConfig {
  NetworkConfig network;
  BorderMode border = BorderMode::kHaloPad;
  std::string loss = "mape";       // "mape" | "mse" | "mae" (Sec. II)
  std::string optimizer = "adam";  // "adam" | "sgd" | "momentum"
  double learning_rate = 1e-3;
  int epochs = 20;
  std::int64_t batch_size = 16;
  double train_fraction = 2.0 / 3.0;  // paper: 1000 of 1500 frames
  std::uint64_t seed = 42;
  bool shuffle = true;

  // Intra-rank compute threads for the conv / GEMM / elementwise kernels
  // (0 = auto: the hardware concurrency divided across concurrent ranks).
  // The trainers cap ranks * threads at the hardware concurrency so the
  // thread-per-rank concurrent mode never oversubscribes; every kernel is
  // bit-deterministic in the thread count, so this is a pure speed knob.
  int num_threads = 0;

  // Per-channel weights for loss == "wmse" (must match the channel count).
  std::vector<double> channel_weights;

  // Learning-rate step decay: lr *= lr_decay_factor every lr_decay_every
  // epochs (0 disables).
  double lr_decay_factor = 1.0;
  int lr_decay_every = 0;

  // Global gradient-norm clipping before each optimizer step (0 disables).
  // Useful with raw-field MAPE, whose sign gradients are large and spiky.
  double clip_grad_norm = 0.0;

  // Early stopping: after `early_stop_patience` consecutive epochs without an
  // improvement of at least `early_stop_min_delta` in the monitored loss
  // (validation loss when a validation task is supplied, else training loss)
  // training stops and the best-epoch weights are restored. 0 disables.
  int early_stop_patience = 0;
  double early_stop_min_delta = 0.0;
};

}  // namespace parpde::core
