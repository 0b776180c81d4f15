// 64-bit FNV-1a constants and step, shared by the artifact checksums,
// the workload checksums and a few hash-table hashes.
#pragma once

#include <cstdint>

namespace xoridx::io {

/// FNV-1a's 64-bit offset basis and prime.
inline constexpr std::uint64_t fnv1a_basis = 14695981039346656037ull;
inline constexpr std::uint64_t fnv1a_prime = 1099511628211ull;

/// Not the standard basis: fnv1a_basis with its last digit dropped. The
/// workload checksums, ProfileCache::KeyHash and Subspace::hash start from
/// it. It is kept because the workload golden checksums pin it.
inline constexpr std::uint64_t fnv1a_short_basis = 1469598103934665603ull;

/// One FNV-1a step: fold `byte` into `h`. An integrity checksum, not a
/// cryptographic hash.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::uint64_t h,
                                            unsigned char byte) noexcept {
  return (h ^ byte) * fnv1a_prime;
}

}  // namespace xoridx::io
