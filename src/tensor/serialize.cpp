#include "tensor/serialize.hpp"

#include <array>
#include <cstdint>
#include <fstream>
#include <limits>

#include "util/framed_file.hpp"

namespace parpde {

namespace {

using util::FormatError;
using util::read_pod;
using util::write_pod;

constexpr std::array<char, 4> kMagic = {'P', 'P', 'D', 'T'};
constexpr std::uint32_t kVersion = 1;
constexpr std::int64_t kMaxElements =
    std::numeric_limits<std::int64_t>::max() / sizeof(float);

}  // namespace

void write_tensor(std::ostream& out, const Tensor& t) {
  write_pod(out, kMagic);
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint32_t>(t.ndim()));
  for (int i = 0; i < t.ndim(); ++i) write_pod(out, t.dim(i));
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.size() * sizeof(float)));
  if (!out) throw std::runtime_error("write_tensor: stream failure");
}

Tensor read_tensor(std::istream& in) {
  if (read_pod<std::array<char, 4>>(in) != kMagic) {
    throw FormatError("read_tensor: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion) throw FormatError("read_tensor: bad version");
  const auto ndim = read_pod<std::uint32_t>(in);
  if (ndim > 8) throw FormatError("read_tensor: implausible rank");
  // Validate the shape against the bytes actually left before allocating
  // for it: a corrupt extent must fail here, not as a huge allocation.
  Shape shape(ndim);
  std::int64_t count = 1;
  for (auto& d : shape) {
    d = read_pod<std::int64_t>(in);
    if (d < 0 || (d > 0 && count > kMaxElements / d)) {
      throw FormatError("read_tensor: implausible shape");
    }
    count *= d;
  }
  const auto bytes = static_cast<std::uint64_t>(count) * sizeof(float);
  const auto left = util::remaining_bytes(in);
  if (left && bytes > *left) {
    throw FormatError("read_tensor: truncated data for shape " +
                      shape_to_string(shape));
  }
  Tensor t(std::move(shape));
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(bytes));
  if (!in) throw FormatError("read_tensor: truncated data");
  return t;
}

void write_tensors(std::ostream& out, std::span<const Tensor> tensors) {
  write_pod(out, static_cast<std::uint32_t>(tensors.size()));
  for (const auto& t : tensors) write_tensor(out, t);
}

std::vector<Tensor> read_tensors(std::istream& in, std::uint32_t max_count) {
  const auto count = read_pod<std::uint32_t>(in);
  if (count > max_count) throw FormatError("read_tensors: implausible count");
  std::vector<Tensor> tensors;
  for (std::uint32_t i = 0; i < count; ++i) tensors.push_back(read_tensor(in));
  return tensors;
}

void save_tensor(const std::string& path, const Tensor& t) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_tensor: cannot open " + path);
  write_tensor(out, t);
}

Tensor load_tensor(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_tensor: cannot open " + path);
  return read_tensor(in);
}

}  // namespace parpde
