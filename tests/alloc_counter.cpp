#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_min_bytes{0};
std::atomic<std::int64_t> g_count{0};
std::atomic<std::size_t> g_largest{0};

void note(std::size_t n) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (n >= g_min_bytes.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t prev = g_largest.load(std::memory_order_relaxed);
  while (n > prev && !g_largest.compare_exchange_weak(
                         prev, n, std::memory_order_relaxed)) {
  }
  if (n > parpde::testing::kRefuseBytes) throw std::bad_alloc();
}

void* counted(std::size_t n) {
  note(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted(std::size_t n, std::align_val_t al) {
  note(n);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a whole number of alignment units.
  void* p = std::aligned_alloc(a, (n + a) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// The nothrow forms: the same allocation, nullptr instead of bad_alloc.
template <class... Align>
void* counted_or_null(std::size_t n, Align... al) noexcept {
  try {
    return counted(n, al...);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

namespace parpde::testing {

AllocCounter::AllocCounter(std::size_t min_bytes) {
  g_min_bytes.store(min_bytes);
  g_count.store(0);
  g_largest.store(0);
  g_counting.store(true);
}

AllocCounter::~AllocCounter() { g_counting.store(false); }

std::int64_t AllocCounter::count() const { return g_count.load(); }

std::size_t AllocCounter::largest() const { return g_largest.load(); }

}  // namespace parpde::testing

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_or_null(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_or_null(n);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_or_null(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_or_null(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
