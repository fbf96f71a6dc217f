#pragma once

// The one on-disk envelope and write protocol of the checkpoint formats:
// PPNN model weights (nn/serialize), PPDE ensembles (core/checkpoint), PPTC
// training state (core/train_checkpoint) and PPES elastic rollout state
// (elastic/state_checkpoint). Little-endian:
//
//   magic[4] | u32 version | u64 payload_len | u32 crc32(payload) | payload
//
// The formats only encode and decode payloads. Malformed input of any kind
// surfaces as FormatError — never as a crash, and never as an allocation
// sized by a field the stream cannot back.

#include <cstdint>
#include <initializer_list>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace parpde::util {

class FormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw FormatError("truncated: the stream ends inside a field");
  return value;
}

// Bytes left in a seekable stream; nullopt when the stream cannot tell.
std::optional<std::uint64_t> remaining_bytes(std::istream& in);

// Throws FormatError unless `in` is exhausted. Payload decoders call it last,
// so a payload that does not match its version is rejected, not half-read.
void expect_end(std::istream& in);

// The envelope around `payload`; `magic` must be four bytes.
std::string frame(std::string_view magic, std::uint32_t version,
                  std::string_view payload);

struct Framed {
  std::uint32_t version = 0;
  std::string payload;
};

// Reads one envelope and returns its version and CRC-verified payload. The
// payload is read in bounded chunks, so a lying length costs at most what
// the stream holds. Messages name "magic", "version", "truncated" or "CRC".
Framed read_verified(std::istream& in, std::string_view magic,
                     std::initializer_list<std::uint32_t> accepted_versions);

// Crash-consistent replace of `path`: write `<path>.tmp` (retrying EINTR and
// short writes), flush it to disk, rename it over `path`, then flush the
// directory (best effort). A crash leaves the old file or a stray `.tmp`,
// never a torn `path`. Throws std::runtime_error.
void write_atomic(const std::string& path, std::string_view bytes);

}  // namespace parpde::util
