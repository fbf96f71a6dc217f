#pragma once

// Internal seam of the int8 backend (backend/quantized_int8.cpp) for tests
// that compare its code paths: not part of the library's interface, and no
// production code calls it.

#include <string>
#include <vector>

#include "backend/kernel_backend.hpp"

namespace parpde::backend::detail {

// The int8 conv kernels this host can run, in dispatch order (the first is
// the one the backend picks): "vnni", "avx2", "scalar" on x86, where
// supported; "scalar" elsewhere.
[[nodiscard]] std::vector<std::string> int8_kernels();

// Makes `name`, one of int8_kernels(), the kernel every later int8 conv
// runs. Throws std::invalid_argument for a kernel the host cannot run. Must
// not be called while an int8 conv runs.
void use_int8_kernel(const std::string& name);

// The int8 backend built from the portable (non-x86) branch of the source.
// Defined only by the object that compiles quantized_int8.cpp with
// PARPDE_INT8_PORTABLE (tests/CMakeLists.txt), so that an x86 build checks
// that branch too.
[[nodiscard]] const KernelBackend& portable_quantized_int8();

}  // namespace parpde::backend::detail
