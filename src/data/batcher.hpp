#pragma once

// Mini-batch index scheduling: shuffles sample indices each epoch and cuts
// them into batches. Deterministic given the seed, so sequential and parallel
// trainers see identical batch schedules when configured identically.

#include <cstdint>
#include <vector>

#include "util/random.hpp"

namespace parpde::data {

class Batcher {
 public:
  Batcher(std::int64_t num_samples, std::int64_t batch_size, std::uint64_t seed);

  // Batches for the next epoch (advances the internal RNG).
  [[nodiscard]] std::vector<std::vector<std::int64_t>> next_epoch();

  [[nodiscard]] std::int64_t num_samples() const { return num_samples_; }
  [[nodiscard]] std::int64_t batch_size() const { return batch_size_; }
  [[nodiscard]] std::int64_t batches_per_epoch() const {
    return (num_samples_ + batch_size_ - 1) / batch_size_;
  }

  // Shuffle-RNG state for crash-consistent checkpoints: restoring it replays
  // the exact batch schedule an uninterrupted run would have produced.
  [[nodiscard]] std::string rng_state() const { return rng_.serialize_state(); }
  void restore_rng(const std::string& state) { rng_.restore_state(state); }

 private:
  std::int64_t num_samples_;
  std::int64_t batch_size_;
  util::Rng rng_;
};

}  // namespace parpde::data
