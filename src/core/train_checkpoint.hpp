#pragma once

// Crash-consistent per-rank training checkpoints (the restart half of the
// fault-tolerance layer; docs/robustness.md).
//
// Each checkpoint is one file `rank<R>_epoch<E>.ckpt` holding a
// TrainerSnapshot in the shared envelope of util/framed_file.hpp:
//
//   magic "PPTC" | u32 version (1) | u64 payload_len | u32 crc32 | payload
//
// and is replaced atomically by util::write_atomic, so a crash mid-write
// leaves either the previous checkpoint set intact or a `.tmp` that readers
// ignore;
// a torn or bit-rotted file fails its length/CRC check and is skipped with a
// warning rather than resurrecting garbage weights. A per-rank manifest
// `rank<R>.latest` (also renamed into place) names the newest file; loading
// falls back to a directory scan when the manifest is missing or stale.

#include <optional>
#include <string>

#include "core/trainer.hpp"

namespace parpde::core {

// Serializes `snapshot` for `rank` into `dir` (created if absent) and
// returns the path written. Atomic in the crash sense described above.
std::string save_rank_checkpoint(const std::string& dir, int rank,
                                 const TrainerSnapshot& snapshot);

// Reads and validates one checkpoint file. Returns false — with a diagnostic
// in `*why` — on any framing, length or CRC failure instead of throwing:
// invalid files are an expected outcome of a crash, not a programming error.
bool read_rank_checkpoint(const std::string& path, int* rank,
                          TrainerSnapshot* out, std::string* why = nullptr);

// Newest valid checkpoint for `rank` in `dir`: tries the manifest first,
// then scans `rank<R>_epoch*.ckpt` newest-epoch-first, skipping (and
// warning about) invalid files. nullopt when none survives.
std::optional<TrainerSnapshot> load_latest_checkpoint(const std::string& dir,
                                                      int rank);

}  // namespace parpde::core
