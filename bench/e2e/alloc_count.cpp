// Counting replacement of the global operator new/delete. Every
// non-aligned form is replaced, so each allocation and its release pair
// up through malloc/free even where a sanitizer runtime supplies its own
// operators. Kept in its own translation unit so the compiler never
// inlines the malloc/free pair into callers (GCC then misreports it as a
// mismatched new/delete).
#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace globe::e2e {

std::uint64_t allocations() { return g_allocs.load(std::memory_order_relaxed); }
std::uint64_t allocated_bytes() {
  return g_bytes.load(std::memory_order_relaxed);
}

}  // namespace globe::e2e
