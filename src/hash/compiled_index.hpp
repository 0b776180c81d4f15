// Table-driven form of a set-index function, for the simulator's hot loop.
//
// Every index function is GF(2)-linear on its n hashed bits (the contract
// in index_function.hpp), so the set index of a block address is the XOR
// of the images of its set bits. Grouping the n bits into ceil(n/8) bytes,
// the contribution of one byte is a lookup in a 256-entry table of
// precomputed image combinations, and the set index is the XOR of one
// lookup per byte: two loads for the paper's n = 16, with no virtual call
// and no per-bit loop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hash/index_function.hpp"

namespace xoridx::hash {

class CompiledIndex {
 public:
  /// Compile `fn` from the images of its n unit vectors. Debug builds
  /// check every table entry, and addresses with bits set above n,
  /// against fn.index().
  explicit CompiledIndex(const IndexFunction& fn);

  /// The bit-selecting function whose index bit j is the j-th lowest set
  /// bit of `mask` (a subset of the n hashed bits), built straight from
  /// the mask in O(256) per byte: what BitSelectFunction(n, positions of
  /// mask) compiles to, without constructing one.
  [[nodiscard]] static CompiledIndex bit_select(int n, Word mask);

  [[nodiscard]] int input_bits() const noexcept { return n_; }
  [[nodiscard]] int index_bits() const noexcept { return m_; }

  /// The lookup itself, by value: a hot loop that copies it keeps the
  /// table pointer and slice count in registers across its stores.
  struct Lookup {
    const std::uint32_t* table;
    int slices;

    [[nodiscard]] std::uint32_t operator()(Word block_addr) const noexcept {
      std::uint32_t set = table[block_addr & 0xffu] ^
                          table[256 + ((block_addr >> 8) & 0xffu)];
      for (int k = 2; k < slices; ++k)
        set ^= table[256 * k + ((block_addr >> (8 * k)) & 0xffu)];
      return set;
    }
  };

  [[nodiscard]] Lookup lookup() const noexcept {
    return {tables_.data(), slices_};
  }

  /// Set index of a block address; bits at and above n are ignored.
  [[nodiscard]] std::uint32_t operator()(Word block_addr) const noexcept {
    return lookup()(block_addr);
  }

 private:
  /// `images[i]` is the index of unit vector i, for i < n.
  CompiledIndex(int n, int m, std::span<const Word> images);

  int n_;
  int m_;
  int slices_;  ///< ceil(n / 8), at least 2 (n <= 16 is two fixed lookups)
  std::vector<std::uint32_t> tables_;  ///< slices_ x 256, byte k at 256k
};

}  // namespace xoridx::hash
