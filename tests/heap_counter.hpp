// Live and peak heap bytes of a test binary, for memory-bound tests.
// Replaces the global operator new/delete, so include it from exactly one
// translation unit of the binary. Each block carries its size in a header
// so unsized deletes can subtract.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace heap {
namespace {
std::atomic<std::size_t> live{0};
std::atomic<std::size_t> high{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

/// Restart peak tracking from the current live size, which is returned.
std::size_t reset_peak() {
  const std::size_t now = live.load();
  high.store(now);
  return now;
}
std::size_t peak() { return high.load(); }
}  // namespace heap

void* operator new(std::size_t size) {
  auto* base = static_cast<unsigned char*>(std::malloc(size + heap::kHeader));
  if (base == nullptr) throw std::bad_alloc();
  *reinterpret_cast<std::size_t*>(base) = size;
  const std::size_t now = heap::live.fetch_add(size) + size;
  std::size_t seen = heap::high.load();
  while (now > seen && !heap::high.compare_exchange_weak(seen, now)) {
  }
  return base + heap::kHeader;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  auto* base = static_cast<unsigned char*>(p) - heap::kHeader;
  heap::live.fetch_sub(*reinterpret_cast<std::size_t*>(base));
  std::free(base);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// come from the same pair: under ASan the unreplaced nothrow new is the
// sanitizer's, and the replaced delete above would then free a block
// without this file's header.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
