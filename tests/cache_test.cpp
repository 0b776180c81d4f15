// Cache-model tests: direct-mapped, set-associative LRU, fully
// associative, skewed, and the 3C classification.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/direct_mapped.hpp"
#include "cache/fully_associative.hpp"
#include "cache/geometry.hpp"
#include "cache/set_associative.hpp"
#include "cache/simulate.hpp"
#include "cache/skewed.hpp"
#include "hash/bit_select_function.hpp"
#include "hash/compiled_index.hpp"
#include "hash/permutation_function.hpp"
#include "hash/xor_function.hpp"
#include "trace/generators.hpp"

namespace xoridx::cache {
namespace {

using hash::XorFunction;
using trace::Trace;

TEST(Geometry, PaperConfigurations) {
  const CacheGeometry kb1(1024, 4);
  EXPECT_EQ(kb1.num_blocks(), 256u);
  EXPECT_EQ(kb1.index_bits(), 8);
  EXPECT_EQ(kb1.offset_bits(), 2);
  const CacheGeometry kb4(4096, 4);
  EXPECT_EQ(kb4.index_bits(), 10);
  const CacheGeometry kb16(16384, 4);
  EXPECT_EQ(kb16.index_bits(), 12);
}

TEST(Geometry, RejectsInvalid) {
  EXPECT_THROW(CacheGeometry(1000, 4), std::invalid_argument);
  EXPECT_THROW(CacheGeometry(1024, 3), std::invalid_argument);
  EXPECT_THROW(CacheGeometry(0, 4), std::invalid_argument);
  EXPECT_THROW(CacheGeometry(4, 4, 2), std::invalid_argument);
}

TEST(DirectMapped, HitsOnRepeat) {
  const XorFunction f = XorFunction::conventional(16, 8);
  DirectMappedCache cache(CacheGeometry(1024, 4), f);
  EXPECT_FALSE(cache.access(100));
  EXPECT_TRUE(cache.access(100));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().accesses, 2u);
}

TEST(DirectMapped, ConflictOnSameSet) {
  const XorFunction f = XorFunction::conventional(16, 8);
  DirectMappedCache cache(CacheGeometry(1024, 4), f);
  // Blocks 0 and 256 share set 0 under modulo indexing.
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(256));
  EXPECT_FALSE(cache.access(0));  // evicted
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(DirectMapped, DistinctSetsNoConflict) {
  const XorFunction f = XorFunction::conventional(16, 8);
  DirectMappedCache cache(CacheGeometry(1024, 4), f);
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(1));
  EXPECT_TRUE(cache.access(0));
  EXPECT_TRUE(cache.access(1));
}

TEST(DirectMapped, FlushInvalidates) {
  const XorFunction f = XorFunction::conventional(16, 8);
  DirectMappedCache cache(CacheGeometry(1024, 4), f);
  cache.access(42);
  cache.flush();
  EXPECT_FALSE(cache.access(42));
}

TEST(DirectMapped, WidthMismatchRejected) {
  const XorFunction f = XorFunction::conventional(16, 8);
  EXPECT_THROW(DirectMappedCache(CacheGeometry(4096, 4), f),
               std::invalid_argument);
}

/// Test-local reference: a textbook tag store (valid bit + f.tag() per
/// set), independent of the compiled kernel's full-address lines.
class TagStoreReference {
 public:
  explicit TagStoreReference(const hash::IndexFunction& f)
      : f_(f), tags_(std::size_t{1} << f.index_bits()),
        valid_(tags_.size(), false) {}

  bool access(std::uint64_t block) {
    const auto set = static_cast<std::size_t>(f_.index(block));
    const std::uint64_t tag = f_.tag(block);
    if (valid_[set] && tags_[set] == tag) return true;
    valid_[set] = true;
    tags_[set] = tag;
    ++misses;
    return false;
  }

  std::uint64_t misses = 0;

 private:
  const hash::IndexFunction& f_;
  std::vector<std::uint64_t> tags_;
  std::vector<bool> valid_;
};

TEST(DirectMapped, MatchesTagStoreReferenceForEveryFunctionClass) {
  std::mt19937_64 rng(23);
  const int n = 12;
  const CacheGeometry geom(256, 4);  // m = 6
  const int m = geom.index_bits();
  const XorFunction xor_fn{gf2::Matrix::random_full_rank(n, m, rng)};
  const hash::PermutationFunction perm_fn(n, m,
                                          gf2::Matrix::random(n - m, m, rng));
  const hash::BitSelectFunction select_fn(n, {1, 3, 4, 7, 9, 11});
  // Blocks share a small low-n-bit pool and differ above bit n too, so
  // equal indices with different tags (and different high bits) recur.
  const std::uint64_t highs[] = {0, std::uint64_t{1} << n,
                                 std::uint64_t{5} << n,
                                 std::uint64_t{1} << 63};
  for (const hash::IndexFunction* f :
       {static_cast<const hash::IndexFunction*>(&xor_fn),
        static_cast<const hash::IndexFunction*>(&perm_fn),
        static_cast<const hash::IndexFunction*>(&select_fn)}) {
    SCOPED_TRACE(f->describe());
    DirectMappedCache cache(geom, *f);
    TagStoreReference ref(*f);
    for (int i = 0; i < 30000; ++i) {
      const std::uint64_t block = (rng() % 300) | highs[rng() % 4];
      ASSERT_EQ(cache.access(block), ref.access(block)) << "i=" << i;
    }
    EXPECT_EQ(cache.stats().misses, ref.misses);
    EXPECT_EQ(cache.stats().accesses, 30000u);
  }
}

TEST(DirectMapped, FirstTouchOfTheAllOnesBlockMisses) {
  // Lines start invalid, not holding some block address: 2^64 - 1 is a
  // block address like any other (1-byte blocks reach it).
  const hash::BitSelectFunction f = hash::BitSelectFunction::conventional(8, 4);
  DirectMappedCache cache(CacheGeometry(16, 1), f);
  EXPECT_FALSE(cache.access(~std::uint64_t{0}));
  EXPECT_TRUE(cache.access(~std::uint64_t{0}));
  const std::vector<std::uint64_t> blocks = {~std::uint64_t{0}, 0};
  cache.flush();
  EXPECT_EQ(cache.run(blocks), 2u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(DirectMapped, RunStopsWhenMissesReachTheBound) {
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  std::mt19937_64 rng(29);
  std::vector<std::uint64_t> blocks(5000);
  for (std::uint64_t& b : blocks) b = rng() % 3000;

  DirectMappedCache full(geom, f);
  EXPECT_EQ(full.run(blocks), blocks.size());
  const std::uint64_t total = full.stats().misses;
  ASSERT_GT(total, 100u);

  // Stopping at k misses simulates exactly the prefix that ends on the
  // k-th miss.
  DirectMappedCache bounded(geom, f);
  const std::size_t consumed = bounded.run(blocks, 100);
  EXPECT_EQ(bounded.stats().misses, 100u);
  EXPECT_EQ(bounded.stats().accesses, consumed);
  DirectMappedCache prefix(geom, f);
  for (std::size_t i = 0; i < consumed; ++i) prefix.access(blocks[i]);
  EXPECT_EQ(prefix.stats().misses, 100u);
  // A bound already reached simulates nothing; one above the total runs
  // to the end.
  EXPECT_EQ(bounded.run(blocks, 100), 0u);
  DirectMappedCache unbounded(geom, f);
  EXPECT_EQ(unbounded.run(blocks, total + 1), blocks.size());
  EXPECT_EQ(unbounded.stats().misses, total);
}

TEST(DirectMapped, ReconfigureFlushesAndZeroesCounters) {
  const CacheGeometry geom(1024, 4);
  DirectMappedCache cache(geom, XorFunction::conventional(16, 8));
  cache.access(7);
  cache.access(7);
  cache.reconfigure(hash::CompiledIndex::bit_select(16, 0xff00));
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_FALSE(cache.access(7));
  EXPECT_TRUE(cache.access(7));
  // Differs from block 7 only above bit n: same set, so it evicts 7.
  EXPECT_FALSE(cache.access((1u << 16) | 7u));
  EXPECT_FALSE(cache.access(7));
  EXPECT_THROW(cache.reconfigure(hash::CompiledIndex::bit_select(16, 0xf)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Set-associative LRU
// ---------------------------------------------------------------------------

TEST(SetAssociative, LruEviction) {
  const XorFunction f = XorFunction::conventional(16, 7);
  // 1 KB, 2-way: 128 sets. Blocks 0, 128, 256 map to set 0.
  SetAssociativeCache cache(CacheGeometry(1024, 4, 2), f);
  cache.access(0);
  cache.access(128);
  EXPECT_TRUE(cache.access(0));    // still resident
  cache.access(256);               // evicts 128 (LRU)
  EXPECT_TRUE(cache.access(0));
  EXPECT_FALSE(cache.access(128));
}

TEST(SetAssociative, MatchesReferenceModel) {
  // Randomized differential test against a simple per-set LRU list model.
  const XorFunction f = XorFunction::conventional(16, 6);
  const CacheGeometry geom(1024, 4, 4);  // 64 sets x 4 ways
  SetAssociativeCache cache(geom, f);

  std::vector<std::vector<std::uint64_t>> model(geom.num_sets());
  std::mt19937_64 rng(11);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t block = rng() % 700;
    auto& set = model[static_cast<std::size_t>(f.index(block))];
    const auto it = std::find(set.begin(), set.end(), block);
    const bool model_hit = it != set.end();
    if (model_hit) set.erase(it);
    set.insert(set.begin(), block);
    if (set.size() > geom.associativity) set.pop_back();
    EXPECT_EQ(cache.access(block), model_hit) << "i=" << i;
  }
}

TEST(SetAssociative, DirectMappedSpecialCaseAgrees) {
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  SetAssociativeCache sa(geom, f);
  DirectMappedCache dm(geom, f);
  std::mt19937_64 rng(13);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t block = rng() % 2000;
    EXPECT_EQ(sa.access(block), dm.access(block));
  }
}

// ---------------------------------------------------------------------------
// Fully associative LRU
// ---------------------------------------------------------------------------

TEST(FullyAssociative, CapacityEviction) {
  FullyAssociativeCache cache(4);
  for (std::uint64_t b = 0; b < 4; ++b) EXPECT_FALSE(cache.access(b));
  for (std::uint64_t b = 0; b < 4; ++b) EXPECT_TRUE(cache.access(b));
  cache.access(99);                 // evicts LRU block 0
  EXPECT_FALSE(cache.access(0));
  EXPECT_TRUE(cache.access(99));
}

TEST(FullyAssociative, LruOrderMaintained) {
  FullyAssociativeCache cache(3);
  cache.access(1);
  cache.access(2);
  cache.access(3);
  cache.access(1);  // 1 becomes MRU; order: 1,3,2
  cache.access(4);  // evicts 2
  EXPECT_TRUE(cache.access(1));
  EXPECT_TRUE(cache.access(3));
  EXPECT_FALSE(cache.access(2));
}

TEST(FullyAssociative, NeverWorseThanDirectMappedOnLoops) {
  // On a cyclic working set that fits, FA has zero steady-state misses.
  FullyAssociativeCache cache(64);
  for (int rep = 0; rep < 10; ++rep)
    for (std::uint64_t b = 0; b < 64; ++b) cache.access(b);
  EXPECT_EQ(cache.stats().misses, 64u);  // compulsory only
}

// ---------------------------------------------------------------------------
// Skewed-associative cache
// ---------------------------------------------------------------------------

TEST(Skewed, DifferentHashesBreakConflicts) {
  // Bank 0 uses modulo; bank 1 uses a XOR hash. Blocks 0 and 128 collide
  // in bank 0 but may coexist via bank 1.
  const XorFunction f0 = XorFunction::conventional(16, 7);
  std::mt19937_64 rng(17);
  gf2::Matrix g(9, 7);
  g.set_row(0, 0b0000011);
  g.set_row(1, 0b0001100);
  const hash::PermutationFunction f1(16, 7, g);
  SkewedAssociativeCache cache(CacheGeometry(1024, 4), f0, f1);
  cache.access(0);
  cache.access(128);
  cache.access(0);
  cache.access(128);
  // With two banks, at most one of the two re-accesses misses.
  EXPECT_LE(cache.stats().misses, 3u);
}

TEST(Skewed, HitsAfterInsert) {
  const XorFunction f0 = XorFunction::conventional(16, 7);
  const XorFunction f1 = XorFunction::conventional(16, 7);
  SkewedAssociativeCache cache(CacheGeometry(1024, 4), f0, f1);
  EXPECT_FALSE(cache.access(7));
  EXPECT_TRUE(cache.access(7));
  cache.flush();
  EXPECT_FALSE(cache.access(7));
}

TEST(Skewed, RequiresHalfWidthIndices) {
  const XorFunction f = XorFunction::conventional(16, 8);
  EXPECT_THROW(SkewedAssociativeCache(CacheGeometry(1024, 4), f, f),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Simulation drivers and 3C classification
// ---------------------------------------------------------------------------

TEST(Simulate, StrideTraceWorstCase) {
  // Stride of exactly the cache size: every reference maps to set 0 under
  // modulo indexing; all accesses miss after the cold start.
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::stride_trace(0, 1024, 512);
  const CacheStats stats = simulate_direct_mapped(t, geom, f);
  EXPECT_EQ(stats.accesses, 512u);
  EXPECT_EQ(stats.misses, 512u);
}

TEST(Simulate, XorFunctionFixesPowerOfTwoStride) {
  // The classic XOR-indexing win (Rau 1991): fold high bits into the
  // index so a 2^k stride no longer aliases.
  const CacheGeometry geom(1024, 4);
  gf2::Matrix g(8, 8);
  for (int i = 0; i < 8; ++i) g.set_row(i, gf2::unit(i));  // idx ^= high
  const hash::PermutationFunction f(16, 8, g);
  const Trace loop = [] {
    Trace t;
    for (int rep = 0; rep < 8; ++rep)
      for (int i = 0; i < 128; ++i)
        t.append(static_cast<std::uint64_t>(i) * 1024,
                 trace::AccessKind::read);
    return t;
  }();
  const CacheStats modulo = simulate_direct_mapped(
      loop, geom, XorFunction::conventional(16, 8));
  const CacheStats hashed = simulate_direct_mapped(loop, geom, f);
  EXPECT_EQ(modulo.misses, loop.size());  // total thrash
  EXPECT_EQ(hashed.misses, 128u);         // compulsory only
}

TEST(Simulate, BlocksPathAgreesWithTracePath) {
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0x4000, 600, 4, 5000, 99);
  const CacheStats a = simulate_direct_mapped(t, geom, f);
  const std::vector<std::uint64_t> blocks =
      t.block_addresses(geom.offset_bits());
  const CacheStats b = simulate_direct_mapped_blocks(blocks, geom, f);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.accesses, b.accesses);
}

TEST(Classify, PartsSumToMisses) {
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0, 2000, 4, 20000, 7);
  const MissBreakdown b = classify_misses(t, geom, f);
  EXPECT_EQ(b.compulsory + b.capacity + b.conflict, b.misses);
  EXPECT_EQ(b.misses, simulate_direct_mapped(t, geom, f).misses);
}

TEST(Classify, PureConflictPattern) {
  // Two blocks, same set, alternating: no capacity misses possible.
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  Trace t;
  for (int i = 0; i < 50; ++i) {
    t.append(0, trace::AccessKind::read);
    t.append(1024, trace::AccessKind::read);
  }
  const MissBreakdown b = classify_misses(t, geom, f);
  EXPECT_EQ(b.compulsory, 2u);
  EXPECT_EQ(b.capacity, 0u);
  EXPECT_EQ(b.conflict, 98u);
}

TEST(Classify, PureCapacityPattern) {
  // Cyclic walk over 2x capacity: LRU misses everything; all classified
  // capacity after first touch.
  const XorFunction f = XorFunction::conventional(16, 8);
  const CacheGeometry geom(1024, 4);
  Trace t;
  for (int rep = 0; rep < 4; ++rep)
    for (int i = 0; i < 512; ++i)
      t.append(static_cast<std::uint64_t>(i) * 4, trace::AccessKind::read);
  const MissBreakdown b = classify_misses(t, geom, f);
  EXPECT_EQ(b.compulsory, 512u);
  EXPECT_EQ(b.conflict, 0u);
  EXPECT_EQ(b.capacity, 3u * 512u);
}

TEST(Simulate, FullyAssociativeDriver) {
  const CacheGeometry geom(1024, 4);
  Trace t;
  for (int rep = 0; rep < 3; ++rep)
    for (int i = 0; i < 100; ++i)
      t.append(static_cast<std::uint64_t>(i) * 4, trace::AccessKind::read);
  const CacheStats fa = simulate_fully_associative(t, geom);
  EXPECT_EQ(fa.misses, 100u);  // fits: compulsory only
}

// ---------------------------------------------------------------------------
// Belady MIN on every suffix
// ---------------------------------------------------------------------------

/// Next use of each block of `blocks`, or `never`.
constexpr std::size_t never = std::numeric_limits<std::size_t>::max();
std::vector<std::size_t> next_uses(std::span<const std::uint64_t> blocks) {
  std::vector<std::size_t> next(blocks.size(), never);
  std::unordered_map<std::uint64_t, std::size_t> seen;
  for (std::size_t i = blocks.size(); i-- > 0;) {
    if (const auto it = seen.find(blocks[i]); it != seen.end())
      next[i] = it->second;
    seen[blocks[i]] = i;
  }
  return next;
}

/// Forward Belady MIN: on a miss with every line full, evict the cached
/// block whose next use is furthest away. Hits on blocks[from..], started
/// empty; `next` is next_uses(blocks).
std::uint64_t forward_min_hits(std::span<const std::uint64_t> blocks,
                               std::span<const std::size_t> next,
                               std::size_t lines, std::size_t from) {
  std::set<std::pair<std::size_t, std::uint64_t>> by_next_use;
  std::unordered_map<std::uint64_t, std::size_t> cached;  // block -> next use
  std::uint64_t hits = 0;
  for (std::size_t i = from; i < blocks.size(); ++i) {
    const std::uint64_t b = blocks[i];
    if (const auto it = cached.find(b); it != cached.end()) {
      ++hits;
      by_next_use.erase({it->second, b});
      cached.erase(it);
    } else if (cached.size() == lines) {
      const auto victim = std::prev(by_next_use.end());
      cached.erase(victim->second);
      by_next_use.erase(victim);
    }
    by_next_use.insert({next[i], b});
    cached[b] = next[i];
  }
  return hits;
}

/// Random blocks over `footprint` addresses: runs of a sequential sweep,
/// random jumps and the odd back-to-back repeat.
std::vector<std::uint64_t> min_test_blocks(std::size_t length,
                                           std::uint64_t footprint,
                                           std::mt19937_64& rng) {
  std::vector<std::uint64_t> blocks;
  std::uint64_t b = 0;
  while (blocks.size() < length) {
    const std::uint64_t pick = rng() % 8;
    if (pick == 0) b = rng() % footprint;
    else if (pick != 1) b = (b + 1) % footprint;
    blocks.push_back(b * 37 + 5);
  }
  return blocks;
}

TEST(MinSuffixHits, EqualsForwardBeladyOnEverySuffix) {
  std::mt19937_64 rng(61);
  for (const std::size_t lines : {2u, 4u, 16u, 64u, 1024u}) {
    for (const std::uint64_t footprint : {lines / 2 + 1, 3 * lines + 7}) {
      for (const std::size_t length :
           {0u, 1u, 700u, 1023u, 1024u, 1025u, 2047u, 2048u, 2049u}) {
        const std::vector<std::uint64_t> blocks =
            min_test_blocks(length, footprint, rng);
        SCOPED_TRACE("lines=" + std::to_string(lines) + " footprint=" +
                     std::to_string(footprint) +
                     " length=" + std::to_string(length));
        const std::vector<std::uint64_t> every =
            min_suffix_hits(blocks, lines, 1);
        ASSERT_EQ(every.size(), length + 1);
        EXPECT_EQ(every[length], 0u);
        // Every suffix of the short traces; a sample of the long ones,
        // with every suffix next to a 1024-block boundary.
        const std::vector<std::size_t> next = next_uses(blocks);
        for (std::size_t s = 0; s < length; ++s) {
          if (length > 700 && s % 1024 > 1 && s % 1024 < 1023 && s % 61 != 0)
            continue;
          ASSERT_EQ(every[s], forward_min_hits(blocks, next, lines, s)) << s;
        }
        // A coarser stride samples the same suffixes, ending at the empty
        // one.
        const std::vector<std::uint64_t> sampled =
            min_suffix_hits(blocks, lines, 1024);
        ASSERT_EQ(sampled.size(), (length + 1023) / 1024 + 1);
        for (std::size_t k = 0; k < sampled.size(); ++k)
          EXPECT_EQ(sampled[k], every[std::min(k * 1024, length)]) << k;
      }
    }
  }
}

TEST(MinSuffixHits, BoundsAWarmDirectMappedCacheOnTheRest) {
  // The exhaustive sweep's floor: after any prefix, a direct-mapped cache
  // of L lines hits at most MIN's hits on the rest plus L.
  std::mt19937_64 rng(67);
  const CacheGeometry geom(64, 4);  // 16 lines
  const std::vector<std::uint64_t> blocks = min_test_blocks(3000, 60, rng);
  const std::vector<std::uint64_t> hits =
      min_suffix_hits(blocks, geom.num_sets(), 100);
  for (int trial = 0; trial < 8; ++trial) {
    DirectMappedCache dm(
        geom, hash::CompiledIndex(hash::XorFunction::conventional(
                  12, geom.index_bits())));
    if (trial > 0) {
      std::vector<int> positions;
      for (int bit = 0; bit < 12; ++bit) positions.push_back(bit);
      std::shuffle(positions.begin(), positions.end(), rng);
      positions.resize(static_cast<std::size_t>(geom.index_bits()));
      std::sort(positions.begin(), positions.end());
      dm.reconfigure(
          hash::CompiledIndex(hash::BitSelectFunction(12, positions)));
    }
    for (std::size_t k = 0; k + 1 < hits.size(); ++k) {
      const std::uint64_t misses0 = dm.stats().misses;
      const std::uint64_t accesses0 = dm.stats().accesses;
      const std::size_t from = k * 100;
      // Warm from the prefix, then count the rest's hits.
      DirectMappedCache rest = dm;
      rest.run(std::span(blocks).subspan(from));
      const std::uint64_t rest_hits = (rest.stats().accesses - accesses0) -
                                      (rest.stats().misses - misses0);
      EXPECT_LE(rest_hits, hits[k] + geom.num_sets()) << trial << " " << k;
      dm.run(std::span(blocks).subspan(from, 100));
    }
  }
}

}  // namespace
}  // namespace xoridx::cache
