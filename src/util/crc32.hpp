#pragma once

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib/PNG variant): the
// integrity check used by the message-corruption detector (minimpi/fault) and
// the checkpoint envelope (util/framed_file.hpp). Table-driven,
// no dependencies; ~0.5 GB/s, fast enough for checkpoint-sized payloads.

#include <cstddef>
#include <cstdint>

namespace parpde::util {

// CRC of one contiguous buffer. `seed` chains multi-buffer computations:
// crc32(b, nb, crc32(a, na)) == crc of a||b.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0) noexcept;

}  // namespace parpde::util
