#pragma once

// Checkpointing of a trained subdomain ensemble: persists the network
// configuration, topology, per-rank blocks and per-rank parameter tensors of
// a ParallelTrainReport, so inference can resume in a later process (or the
// CLI) without retraining.
//
// "PPDE" files use the shared envelope of util/framed_file.hpp:
//   magic "PPDE" | u32 version (2) | u64 body_len | u32 crc32(body) | body
//   body:
//     u32 n_channels | i64 channels[] | i64 kernel | f32 leaky | u8 final_act
//     u8 border | i32 ranks | i32 px | i32 py
//     per rank: i64 h0 h1 w0 w1 | u32 tensor_count | tensors (tensor format)
// Reading throws util::FormatError on a bad envelope or a body that is
// inconsistent or not fully consumed; save_ensemble replaces its file
// atomically (util::write_atomic).

#include <istream>
#include <ostream>
#include <string>

#include "core/parallel_trainer.hpp"

namespace parpde::core {

struct EnsembleCheckpoint {
  NetworkConfig network;
  BorderMode border = BorderMode::kHaloPad;
  ParallelTrainReport report;
};

void write_ensemble(std::ostream& out, const EnsembleCheckpoint& checkpoint);
EnsembleCheckpoint read_ensemble(std::istream& in);

void save_ensemble(const std::string& path, const EnsembleCheckpoint& checkpoint);
EnsembleCheckpoint load_ensemble(const std::string& path);

// Convenience: bundles the pieces of a training run.
EnsembleCheckpoint make_checkpoint(const TrainConfig& config,
                                   const ParallelTrainReport& report);

}  // namespace parpde::core
