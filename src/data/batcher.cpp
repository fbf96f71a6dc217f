#include "data/batcher.hpp"

#include <numeric>
#include <stdexcept>

namespace parpde::data {

Batcher::Batcher(std::int64_t num_samples, std::int64_t batch_size,
                 std::uint64_t seed)
    : num_samples_(num_samples), batch_size_(batch_size), rng_(seed) {
  if (num_samples <= 0) throw std::invalid_argument("Batcher: no samples");
  if (batch_size <= 0) throw std::invalid_argument("Batcher: bad batch size");
}

std::vector<std::vector<std::int64_t>> Batcher::next_epoch() {
  std::vector<std::int64_t> order(static_cast<std::size_t>(num_samples_));
  std::iota(order.begin(), order.end(), 0);
  rng_.shuffle(std::span<std::int64_t>(order));
  std::vector<std::vector<std::int64_t>> batches;
  batches.reserve(static_cast<std::size_t>(batches_per_epoch()));
  for (std::int64_t start = 0; start < num_samples_; start += batch_size_) {
    const auto end = std::min(start + batch_size_, num_samples_);
    batches.emplace_back(order.begin() + start, order.begin() + end);
  }
  return batches;
}

}  // namespace parpde::data
