// Counting global operator new/delete for the benchmark binary.
//
// Every allocation the program makes goes through here, so the benchmark
// can report allocations per operation (alloc.per_op) and per ladder call.
// The count is a plain integer: the benchmark is single-threaded.
//
// Nothing in this file calls operator new or delete itself, and each
// replacement pairs with its own deallocation path (malloc/free for the
// plain and sized forms, aligned_alloc/free for the aligned forms), so the
// replacement builds clean with -Wall -Wextra -Werror on GCC 12.
#include <cstddef>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace pb {
std::uint64_t allocations() noexcept { return g_allocations; }
}  // namespace pb

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
