#pragma once

// 64-byte-aligned allocation for kernel workspaces. The micro-kernels in
// src/tensor and src/backend load their packed panels and activation quads
// with full-width vector loads; std::vector's default allocator only guarantees 16 bytes on this
// ABI, which splits those loads across cache lines. AlignedVector pins the
// start of each workspace to a cache-line boundary (which is also the widest
// vector width we dispatch to, 64 bytes for AVX-512).
//
// Alignment of the *start* is a performance property, not a correctness one:
// all kernels use unaligned load instructions, so a mid-buffer window (e.g. a
// direct-B tile) staying unaligned is fine. Debug builds assert the invariant
// at the allocation site (see is_aligned64).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace parpde::util {

inline constexpr std::size_t kKernelAlignment = 64;

[[nodiscard]] inline bool is_aligned64(const void* p) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & (kKernelAlignment - 1)) == 0;
}

// Minimal C++17-style allocator forwarding to the aligned operator new.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    void* p = ::operator new(n * sizeof(T),
                             std::align_val_t{kKernelAlignment});
    assert(is_aligned64(p));
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kKernelAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

// Drop-in vector whose data() is 64-byte aligned (workspace buffers only —
// element access semantics are unchanged).
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace parpde::util
