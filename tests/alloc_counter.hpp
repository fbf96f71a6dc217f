#pragma once

// Real heap-allocation counts for the test binaries that link
// tests/alloc_counter.cpp. That file replaces all eight replaceable global
// operator new forms (plain and array, aligned or not, throwing or nothrow)
// and the plain, sized and aligned operator delete forms (the nothrow deletes
// forward to those), so a util::AlignedVector buffer counts like
// any other allocation. Besides the benchmark binary's own counter, it is the
// only file that may define a global operator new (parpde_lint's
// replaceable-new rule): a copy that skipped the
// aligned forms would not see the plan and conv workspaces at all.

#include <cstddef>
#include <cstdint>

namespace parpde::testing {

// A single request above this many bytes throws std::bad_alloc while an
// AllocCounter is alive, so a broken size bound fails its test instead of
// costing gigabytes of RSS.
inline constexpr std::size_t kRefuseBytes = std::size_t{256} << 20;

// While alive, counts every heap allocation of at least `min_bytes` bytes on
// every thread of the process (rank threads, pool workers, a server's
// scheduler) and records the largest single request of any size. At most one
// counter may be alive at a time.
class AllocCounter {
 public:
  explicit AllocCounter(std::size_t min_bytes = 0);
  ~AllocCounter();
  AllocCounter(const AllocCounter&) = delete;
  AllocCounter& operator=(const AllocCounter&) = delete;

  // Allocations counted so far.
  [[nodiscard]] std::int64_t count() const;
  // Largest single request so far.
  [[nodiscard]] std::size_t largest() const;
};

}  // namespace parpde::testing
