#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tensor/serialize.hpp"
#include "util/framed_file.hpp"

namespace parpde::nn {

namespace {

using util::read_pod;
using util::write_pod;

constexpr char kMagic[] = "PPNN";
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kVersionQuant = 3;
constexpr std::uint32_t kMaxTensors = 4096;

std::string encode(Module& module, const std::vector<float>& calibration) {
  const auto params = module.parameters();
  std::ostringstream payload(std::ios::binary);
  write_pod(payload, static_cast<std::uint32_t>(params.size()));
  for (const auto& p : params) write_tensor(payload, *p.value);
  if (!calibration.empty()) {
    write_pod(payload, static_cast<std::uint32_t>(calibration.size()));
    payload.write(
        reinterpret_cast<const char*>(calibration.data()),
        static_cast<std::streamsize>(calibration.size() * sizeof(float)));
  }
  if (!payload) throw std::runtime_error("save_parameters: stream failure");
  return util::frame(kMagic, calibration.empty() ? kVersion : kVersionQuant,
                     std::move(payload).str());
}

}  // namespace

void save_parameters(std::ostream& out, Module& module,
                     const std::vector<float>& calibration) {
  const std::string bytes = encode(module, calibration);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("save_parameters: stream failure");
}

void load_parameters(std::istream& in, Module& module,
                     std::vector<float>* calibration) {
  if (calibration != nullptr) calibration->clear();
  auto framed = util::read_verified(in, kMagic, {kVersion, kVersionQuant});
  std::istringstream payload(std::move(framed.payload), std::ios::binary);
  auto params = module.parameters();
  auto values = read_tensors(payload, kMaxTensors);
  if (values.size() != params.size()) {
    throw std::runtime_error("load_parameters: parameter count mismatch (file "
                             "has " + std::to_string(values.size()) +
                             ", model has " + std::to_string(params.size()) + ")");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!values[i].same_shape(*params[i].value)) {
      throw std::runtime_error("load_parameters: shape mismatch for " + params[i].name);
    }
  }
  std::vector<float> ranges;
  if (framed.version == kVersionQuant) {
    const auto n = read_pod<std::uint32_t>(payload);
    for (std::uint32_t i = 0; i < n; ++i) ranges.push_back(read_pod<float>(payload));
  }
  util::expect_end(payload);
  for (std::size_t i = 0; i < params.size(); ++i) {
    *params[i].value = std::move(values[i]);
  }
  if (calibration != nullptr) *calibration = std::move(ranges);
}

void save_checkpoint(const std::string& path, Module& module,
                     const std::vector<float>& calibration) {
  util::write_atomic(path, encode(module, calibration));
}

void load_checkpoint(const std::string& path, Module& module,
                     std::vector<float>* calibration) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint: cannot open " + path);
  load_parameters(in, module, calibration);
}

}  // namespace parpde::nn
