#include "cache/direct_mapped.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace xoridx::cache {

DirectMappedCache::DirectMappedCache(const CacheGeometry& geometry,
                                     const hash::IndexFunction& index_fn)
    : DirectMappedCache(geometry, hash::CompiledIndex(index_fn)) {}

DirectMappedCache::DirectMappedCache(const CacheGeometry& geometry,
                                     hash::CompiledIndex index)
    : geometry_(geometry),
      index_(std::move(index)),
      lines_(geometry.num_sets()) {
  if (geometry.associativity != 1)
    throw std::invalid_argument("DirectMappedCache requires associativity 1");
  if (index_.index_bits() != geometry.index_bits())
    throw std::invalid_argument(
        "index function width does not match cache geometry");
}

// Cache-line aligned: the loop below is most of an exhaustive sweep, and
// where the linker happens to place it otherwise moves its speed by 10-15%
// (measured on Sapphire Rapids) whenever unrelated library code changes
// size.
[[gnu::aligned(64)]] std::size_t DirectMappedCache::run(
    std::span<const std::uint64_t> blocks, std::uint64_t stop_at) {
  // Locals, so the loop does not reload members after each line store.
  const hash::CompiledIndex::Lookup index = index_.lookup();
  Line* const lines = lines_.data();
  std::uint64_t misses = stats_.misses;
  std::size_t i = 0;
  while (misses < stop_at && i < blocks.size()) {
    const std::uint64_t block = blocks[i++];
    const std::uint32_t set = index(block);
    assert(set < lines_.size());
    Line& line = lines[set];
    // Branch-free: a hit rewrites the line with what it already holds.
    misses += !(line.valid & (line.block == block));
    line = {block, true};
  }
  stats_.accesses += i;
  stats_.misses = misses;
  return i;
}

void DirectMappedCache::reconfigure(hash::CompiledIndex index) {
  if (index.index_bits() != geometry_.index_bits())
    throw std::invalid_argument(
        "index function width does not match cache geometry");
  index_ = std::move(index);
  flush();
  stats_ = {};
}

void DirectMappedCache::flush() {
  for (Line& line : lines_) line.valid = false;
}

}  // namespace xoridx::cache
