#include "util/framed_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "util/crc32.hpp"

namespace parpde::util {

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4;
constexpr std::size_t kReadChunk = 64 * 1024;

template <typename T>
void append_pod(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Reports the failed call's errno for `path`, closing `fd` first if open.
[[noreturn]] void fail_io(const char* what, const std::string& path, int fd = -1) {
  const int err = errno;
  if (fd >= 0) ::close(fd);
  throw std::runtime_error(std::string("write_atomic: ") + what + " " + path +
                           ": " + std::strerror(err));
}

}  // namespace

std::optional<std::uint64_t> remaining_bytes(std::istream& in) {
  const auto here = in.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  if (!in || end < here) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

void expect_end(std::istream& in) {
  if (in.peek() != std::istream::traits_type::eof()) {
    throw FormatError("trailing bytes after the last field");
  }
}

std::string frame(std::string_view magic, std::uint32_t version,
                  std::string_view payload) {
  if (magic.size() != 4) throw std::invalid_argument("frame: magic must be 4 bytes");
  std::string bytes(magic);
  bytes.reserve(kHeaderBytes + payload.size());
  append_pod(bytes, version);
  append_pod(bytes, static_cast<std::uint64_t>(payload.size()));
  append_pod(bytes, crc32(payload.data(), payload.size()));
  return bytes.append(payload);
}

Framed read_verified(std::istream& in, std::string_view magic,
                     std::initializer_list<std::uint32_t> accepted_versions) {
  const std::string name(magic);
  char header[kHeaderBytes];
  in.read(header, sizeof(header));
  const auto got = static_cast<std::size_t>(in.gcount());
  if (std::memcmp(header, magic.data(), std::min(got, magic.size())) != 0) {
    throw FormatError("bad magic (not a " + name + " file)");
  }
  if (got < kHeaderBytes) throw FormatError(name + ": truncated header");
  Framed framed;
  std::uint64_t len = 0;
  std::uint32_t crc = 0;
  std::memcpy(&framed.version, header + 4, 4);
  std::memcpy(&len, header + 8, 8);
  std::memcpy(&crc, header + 16, 4);
  if (std::find(accepted_versions.begin(), accepted_versions.end(),
                framed.version) == accepted_versions.end()) {
    throw FormatError(name + ": unsupported version " + std::to_string(framed.version));
  }

  const auto truncated = [&] {
    return FormatError(name + ": truncated payload — the header promises " +
                       std::to_string(len) + " bytes (torn write or incomplete copy)");
  };
  const auto left = remaining_bytes(in);
  if (left && len > *left) throw truncated();
  if (left) framed.payload.reserve(static_cast<std::size_t>(len));
  while (framed.payload.size() < len) {
    const std::size_t have = framed.payload.size();
    const auto chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(kReadChunk, len - have));
    framed.payload.resize(have + chunk);
    in.read(framed.payload.data() + have, static_cast<std::streamsize>(chunk));
    if (static_cast<std::size_t>(in.gcount()) != chunk) throw truncated();
  }
  if (crc32(framed.payload.data(), framed.payload.size()) != crc) {
    throw FormatError(name + ": CRC mismatch — the payload is corrupt");
  }
  return framed;
}

void write_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail_io("cannot open", tmp);
  for (std::size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno != EINTR) fail_io("write to", tmp, fd);
    if (n > 0) done += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail_io("fsync of", tmp, fd);
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) fail_io("rename to", path);
  const auto dir = std::filesystem::path(path).parent_path();
  const int dir_fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);  // best effort: persist the rename
    ::close(dir_fd);
  }
}

}  // namespace parpde::util
