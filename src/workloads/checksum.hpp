// FNV-1a checksum helpers for workload golden tests. Each kernel's
// checksum starts from io::fnv1a_short_basis.
#pragma once

#include <cstdint>

#include "io/fnv.hpp"

namespace xoridx::workloads {

/// One FNV-1a step over the low byte of `byte`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::uint64_t h,
                                            std::uint64_t byte) noexcept {
  return io::fnv1a(h, static_cast<unsigned char>(byte));
}

[[nodiscard]] constexpr std::uint64_t fnv1a_word(std::uint64_t h,
                                                 std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) h = fnv1a(h, word >> (8 * i));
  return h;
}

}  // namespace xoridx::workloads
