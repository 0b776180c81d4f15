#include "hash/compiled_index.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace xoridx::hash {

namespace {

#ifndef NDEBUG
/// The linearity contract, checked: the compiled form agrees with
/// fn.index() on every byte slice and on mixed addresses, including bits
/// above n (which index() must ignore).
bool agrees_with(const CompiledIndex& compiled, const IndexFunction& fn) {
  const int slices = (fn.input_bits() + 7) / 8;
  for (int k = 0; k < slices; ++k)
    for (Word b = 0; b < 256; ++b)
      if (compiled(b << (8 * k)) != fn.index(b << (8 * k))) return false;
  Word x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 64; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (compiled(x) != fn.index(x)) return false;
  }
  return true;
}
#endif

}  // namespace

CompiledIndex::CompiledIndex(int n, int m, std::span<const Word> images)
    : n_(n), m_(m), slices_(std::max(2, (n + 7) / 8)) {
  if (n < 0 || n > 64 || m < 0 || m > 32)
    throw std::invalid_argument("compiled index needs n <= 64, m <= 32");
  tables_.assign(static_cast<std::size_t>(slices_) * 256, 0);
  for (int k = 0; k < slices_; ++k) {
    std::uint32_t* table = tables_.data() + 256 * k;
    // Entries [2^j, 2^(j+1)) are entries [0, 2^j) XOR the image of bit j.
    for (int j = 0; j < 8; ++j) {
      const int bit = 8 * k + j;
      const auto image = static_cast<std::uint32_t>(
          bit < n ? images[static_cast<std::size_t>(bit)] : 0);
      const int half = 1 << j;
      for (int b = 0; b < half; ++b) table[half + b] = table[b] ^ image;
    }
  }
}

CompiledIndex::CompiledIndex(const IndexFunction& fn)
    : CompiledIndex(fn.input_bits(), fn.index_bits(), [&] {
        std::array<Word, 64> images{};
        for (int i = 0; i < fn.input_bits() && i < 64; ++i)
          images[static_cast<std::size_t>(i)] = fn.index(gf2::unit(i));
        return images;
      }()) {
  assert(agrees_with(*this, fn) && "index function is not GF(2)-linear");
}

CompiledIndex CompiledIndex::bit_select(int n, Word mask) {
  std::array<Word, 64> images{};
  int m = 0;
  for (int i = 0; i < n && i < 64; ++i)
    if ((mask >> i) & 1u) images[static_cast<std::size_t>(i)] = Word{1} << m++;
  return CompiledIndex(n, m, images);
}

}  // namespace xoridx::hash
