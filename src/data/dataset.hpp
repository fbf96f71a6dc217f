#pragma once

// Frame-sequence dataset. The learning task of the paper is one-step
// prediction: frame t is the input, frame t+1 the target (Sec. IV-B). The
// dataset owns the recorded frames and exposes chronological train/validation
// splits over the pair indices ("we use the first 1000 time steps for the
// training and the remaining ones for the validation").

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace parpde::data {

struct Split {
  std::vector<std::int64_t> train;  // pair indices: pair i = (frame i, frame i+1)
  std::vector<std::int64_t> val;
};

class FrameDataset {
 public:
  explicit FrameDataset(std::vector<Tensor> frames);

  [[nodiscard]] std::int64_t num_frames() const {
    return static_cast<std::int64_t>(frames_.size());
  }
  [[nodiscard]] std::int64_t num_pairs() const { return num_frames() - 1; }

  [[nodiscard]] const Tensor& frame(std::int64_t i) const {
    return frames_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] const std::vector<Tensor>& frames() const { return frames_; }

  [[nodiscard]] std::int64_t channels() const { return frames_.front().dim(0); }
  [[nodiscard]] std::int64_t height() const { return frames_.front().dim(1); }
  [[nodiscard]] std::int64_t width() const { return frames_.front().dim(2); }

  // First `train_fraction` of the pairs train, the rest validate.
  [[nodiscard]] Split chronological_split(double train_fraction) const;

 private:
  std::vector<Tensor> frames_;  // each [C, H, W]
};

// Frame-sequence files ("PPFR" container wrapping the tensor format), used by
// the CLI to pass datasets between the simulate/train/eval stages. Saving
// replaces `path` atomically (util::write_atomic).
void save_frames(const std::string& path, std::span<const Tensor> frames);
std::vector<Tensor> load_frames(const std::string& path);

}  // namespace parpde::data
