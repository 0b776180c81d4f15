// Direct-mapped cache with a pluggable set-index function.
//
// This is the hardware the paper optimizes: a direct-mapped RAM whose set
// index comes from a (possibly reconfigurable) hash of the block address.
// It is also the one exact direct-mapped simulation kernel: every driver
// in simulate.hpp and the exhaustive bit-select sweep run on it.
//
// The index function is compiled once into byte-sliced lookup tables
// (hash::CompiledIndex). Each line holds the full block address and a
// valid flag, so tag() is never called: two blocks in one set have equal
// tags exactly when they are the same block, because (tag, index) is
// injective, and the hit/miss sequence is the one a tag store gives.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "cache/geometry.hpp"
#include "hash/compiled_index.hpp"
#include "hash/index_function.hpp"

namespace xoridx::cache {

class DirectMappedCache {
 public:
  /// `index_fn` must produce indices of exactly geometry.index_bits()
  /// bits; it is compiled here and not referenced afterwards.
  DirectMappedCache(const CacheGeometry& geometry,
                    const hash::IndexFunction& index_fn);
  DirectMappedCache(const CacheGeometry& geometry, hash::CompiledIndex index);

  /// Access one block address (byte address >> offset_bits). Returns true
  /// on hit and updates the counters.
  bool access(std::uint64_t block_addr) {
    const std::uint64_t misses = stats_.misses;
    run(std::span<const std::uint64_t>(&block_addr, 1));
    return stats_.misses == misses;
  }

  /// Access `blocks` in order, stopping early once the miss count reaches
  /// `stop_at`. Returns the number of accesses simulated.
  std::size_t run(std::span<const std::uint64_t> blocks,
                  std::uint64_t stop_at =
                      std::numeric_limits<std::uint64_t>::max());

  /// Switch to another index function of the same width. Like the
  /// hardware's reconfiguration (Section 5) this flushes every line; it
  /// also zeroes the counters.
  void reconfigure(hash::CompiledIndex index);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const CacheGeometry& geometry() const noexcept {
    return geometry_;
  }

  /// Invalidate all lines (reconfiguration flush, Section 5: changing the
  /// index function invalidates the mapping, so lines must be flushed).
  void flush();

 private:
  struct Line {
    std::uint64_t block = 0;
    bool valid = false;
  };

  CacheGeometry geometry_;
  hash::CompiledIndex index_;
  std::vector<Line> lines_;
  CacheStats stats_;
};

}  // namespace xoridx::cache
