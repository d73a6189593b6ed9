// Counting replacement for the global operator new, so a test can assert
// that a scope performed zero heap allocations — the "steady-state = zero
// allocations" invariant of DESIGN.md. It defines the replaceable
// allocation functions, so include it from exactly one translation unit
// per test binary.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

namespace logp::test {

inline std::size_t g_heap_allocs = 0;

/// Heap allocations performed since construction.
class AllocationGuard {
 public:
  AllocationGuard() : start_(g_heap_allocs) {}
  std::size_t count() const { return g_heap_allocs - start_; }

 private:
  std::size_t start_;
};

}  // namespace logp::test

void* operator new(std::size_t size) {
  ++logp::test::g_heap_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++logp::test::g_heap_allocs;
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
