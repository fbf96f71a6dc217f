#include "data/dataset.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <stdexcept>

#include "tensor/serialize.hpp"
#include "util/framed_file.hpp"

namespace parpde::data {

FrameDataset::FrameDataset(std::vector<Tensor> frames)
    : frames_(std::move(frames)) {
  if (frames_.size() < 2) {
    throw std::invalid_argument("FrameDataset: need at least 2 frames");
  }
  const auto& first = frames_.front();
  if (first.ndim() != 3) {
    throw std::invalid_argument("FrameDataset: frames must be [C,H,W]");
  }
  for (const auto& f : frames_) {
    if (!f.same_shape(first)) {
      throw std::invalid_argument("FrameDataset: inconsistent frame shapes");
    }
  }
}

Split FrameDataset::chronological_split(double train_fraction) const {
  if (train_fraction <= 0.0 || train_fraction >= 1.0) {
    throw std::invalid_argument("chronological_split: fraction must be in (0,1)");
  }
  const std::int64_t pairs = num_pairs();
  auto n_train = static_cast<std::int64_t>(train_fraction * static_cast<double>(pairs));
  n_train = std::clamp<std::int64_t>(n_train, 1, pairs - 1);
  Split split;
  split.train.reserve(static_cast<std::size_t>(n_train));
  split.val.reserve(static_cast<std::size_t>(pairs - n_train));
  for (std::int64_t i = 0; i < pairs; ++i) {
    (i < n_train ? split.train : split.val).push_back(i);
  }
  return split;
}

namespace {
constexpr std::array<char, 4> kFrameMagic = {'P', 'P', 'F', 'R'};
constexpr std::uint32_t kFrameVersion = 1;
}  // namespace

void save_frames(const std::string& path, std::span<const Tensor> frames) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_frames: cannot open " + path);
  util::write_pod(out, kFrameMagic);
  util::write_pod(out, kFrameVersion);
  write_tensors(out, frames);
  if (!out) throw std::runtime_error("save_frames: stream failure");
}

std::vector<Tensor> load_frames(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_frames: cannot open " + path);
  if (util::read_pod<std::array<char, 4>>(in) != kFrameMagic) {
    throw util::FormatError("load_frames: bad magic in " + path);
  }
  if (util::read_pod<std::uint32_t>(in) != kFrameVersion) {
    throw util::FormatError("load_frames: unsupported version");
  }
  return read_tensors(in, 1u << 20);
}

}  // namespace parpde::data
