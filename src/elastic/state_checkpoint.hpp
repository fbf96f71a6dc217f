#pragma once

// Per-task rollout state checkpoints for the elastic runtime. "PPES" files
// use the shared envelope and atomic write of util/framed_file.hpp:
//   magic "PPES" | u32 version (1) | u64 payload_len | u32 crc32 | payload
//   payload: i32 task | i32 step | interior (tensor format)
//
// During an elastic rollout every task's interior field is snapshotted at
// fixed step boundaries; after a rank death the survivors roll every task
// back to the newest *common* snapshot line and recompute forward, so the
// adopted tasks resume bit-identically to an uninterrupted run. A torn or
// corrupt file is detected by the envelope and reported, never silently
// loaded.

#include <string>

#include "tensor/tensor.hpp"

namespace parpde::elastic {

// Atomically writes `interior` (the task's field at the end of `step`) to
// `dir/task<t>_step<s>.ppes`. Creates `dir` if needed. Returns the final
// path. Throws on I/O failure.
std::string save_task_state(const std::string& dir, int task, int step,
                            const Tensor& interior);

// Loads and validates one snapshot. Returns false (with a reason in `why`,
// if non-null) on a missing, torn, corrupt, or mismatched file.
bool load_task_state(const std::string& dir, int task, int step, Tensor* out,
                     std::string* why = nullptr);

// Largest step s <= max_step such that (s + 1) % every == 0, or -1 if no
// such snapshot line exists (callers then restart from the initial frame).
// Pure arithmetic — every survivor computes the same rollback line.
[[nodiscard]] constexpr int rollback_line(int max_step, int every) {
  if (every <= 0 || max_step < 0) return -1;
  const int lines = (max_step + 1) / every;  // snapshot steps: every*k - 1
  return lines == 0 ? -1 : lines * every - 1;
}

}  // namespace parpde::elastic
