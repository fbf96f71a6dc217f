#pragma once

// Binary tensor (de)serialization: a small self-describing container used for
// model checkpoints and dataset dumps.
//
// Layout (little-endian):
//   magic "PPDT"  | u32 version | u32 ndim | i64 dims[ndim] | f32 data[numel]
//
// read_tensor throws util::FormatError on malformed input; a shape whose
// data a seekable stream cannot hold is rejected before it is allocated.

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace parpde {

void write_tensor(std::ostream& out, const Tensor& t);
Tensor read_tensor(std::istream& in);

// A tensor list: u32 count | count tensors. Reading rejects a count above
// `max_count`, and grows the list as tensors arrive rather than reserving.
void write_tensors(std::ostream& out, std::span<const Tensor> tensors);
std::vector<Tensor> read_tensors(std::istream& in, std::uint32_t max_count);

// Whole-file convenience wrappers.
void save_tensor(const std::string& path, const Tensor& t);
Tensor load_tensor(const std::string& path);

}  // namespace parpde
