#pragma once

// Model checkpointing: saves/restores the parameter tensors of a module in
// declaration order. The architecture itself is rebuilt by the caller (the
// checkpoint stores values, not structure), matching the common
// "state_dict"-style workflow.
//
// "PPNN" files use the shared envelope of util/framed_file.hpp:
//   magic "PPNN" | u32 version | u64 payload_len | u32 crc32(payload) | payload
//   v2 payload: u32 tensor_count | tensors (tensor format)
//   v3 payload: v2 payload | u32 range_count | range_count f32 ranges
// v3 is written only for a non-empty `calibration`: the int8 activation
// ranges of ForwardPlan::calibration(), so a quantized rollout can start
// without an fp32 calibration pass. Loading accepts v2 and v3 (anything else,
// or a payload that does not match its version, throws util::FormatError)
// and fills `calibration`, if non-null, with the stored ranges.

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace parpde::nn {

void save_parameters(std::ostream& out, Module& module,
                     const std::vector<float>& calibration = {});
void load_parameters(std::istream& in, Module& module,
                     std::vector<float>* calibration = nullptr);

// Whole-file forms; saving replaces `path` atomically (util::write_atomic).
void save_checkpoint(const std::string& path, Module& module,
                     const std::vector<float>& calibration = {});
void load_checkpoint(const std::string& path, Module& module,
                     std::vector<float>* calibration = nullptr);

}  // namespace parpde::nn
