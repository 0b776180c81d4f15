// Cache set-index functions.
//
// An index function hashes the n low-order bits of a block address to an
// m-bit set index (paper Section 2). Address bits at and above n (the
// paper's N - n high-order bits) never affect the index and are folded
// into the tag. Implementations must keep (tag, index) jointly injective
// on block addresses so that cache lookups remain sound (Section 4).
//
// Implementations must also be GF(2)-linear on the n hashed bits:
// index(a ^ b) == index(a) ^ index(b) for all block addresses, so that
// index(0) == 0 and a function is fixed by the images of its n unit
// vectors. The XOR, bit-selecting and permutation classes all are (each
// is an n x m matrix over GF(2), Section 2). The simulator relies on it:
// hash::CompiledIndex rebuilds the function from those n images into
// byte-sliced lookup tables, and debug builds check the compiled form
// against index().
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "gf2/bitvec.hpp"

namespace xoridx::hash {

using gf2::Word;

class IndexFunction {
 public:
  virtual ~IndexFunction() = default;

  /// Number of hashed address bits, n.
  [[nodiscard]] virtual int input_bits() const noexcept = 0;

  /// Number of set-index bits, m = log2(number of sets).
  [[nodiscard]] virtual int index_bits() const noexcept = 0;

  /// Set index of a block address (block address = byte address divided by
  /// the block size; the caller performs that shift). GF(2)-linear in
  /// the low n bits, independent of the rest (see above).
  [[nodiscard]] virtual Word index(Word block_addr) const = 0;

  /// Tag of a block address. Together with index() this must be injective.
  [[nodiscard]] virtual Word tag(Word block_addr) const = 0;

  /// Human-readable description, e.g. "set[2] = a2 XOR a12".
  [[nodiscard]] virtual std::string describe() const = 0;

  [[nodiscard]] virtual std::unique_ptr<IndexFunction> clone() const = 0;

 protected:
  IndexFunction() = default;
  IndexFunction(const IndexFunction&) = default;
  IndexFunction& operator=(const IndexFunction&) = default;
};

}  // namespace xoridx::hash
