#include "search/exhaustive_bit_select.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cache/direct_mapped.hpp"
#include "cache/simulate.hpp"
#include "gf2/enumerate.hpp"
#include "hash/compiled_index.hpp"
#include "obs/metrics.hpp"
#include "search/estimator.hpp"

namespace xoridx::search {

namespace {

using gf2::Word;

std::vector<int> mask_to_positions(Word mask) {
  std::vector<int> pos;
  while (mask != 0) {
    pos.push_back(std::countr_zero(mask));
    mask &= mask - 1;
  }
  return pos;
}

using gf2::for_each_combination;

}  // namespace

ExhaustiveBitSelectResult optimal_bit_select(
    tracestore::TraceInput t, const cache::CacheGeometry& geometry,
    int hashed_bits) {
  std::vector<std::uint64_t> blocks;
  blocks.reserve(static_cast<std::size_t>(t.size()));
  const int shift = geometry.offset_bits();
  // An immediate repeat of a block hits under every index function, so
  // dropping it moves neither a candidate's misses nor where it stops.
  t.for_each_batch([&](std::span<const trace::Access> batch) {
    for (const trace::Access& a : batch) {
      const std::uint64_t block = a.addr >> shift;
      if (blocks.empty() || blocks.back() != block) blocks.push_back(block);
    }
  });
  return optimal_bit_select_blocks(blocks, geometry, hashed_bits);
}

ExhaustiveBitSelectResult optimal_bit_select_blocks(
    std::span<const std::uint64_t> blocks,
    const cache::CacheGeometry& geometry, int hashed_bits) {
  if (hashed_bits > 16)
    throw std::invalid_argument("optimal_bit_select supports n <= 16");
  const int m = geometry.index_bits();
  const int n = hashed_bits;
  if (m > n) throw std::invalid_argument("index bits exceed hashed bits");

  // A selected bit with one value over the whole footprint adds the same
  // constant to every index, so a candidate's hit/miss sequence depends
  // only on the varying bits it selects and on how many constant bits
  // fill the rest. Each such class is simulated once, through its member
  // that takes the lowest constant bits: that is the class's smallest
  // mask, so Gosper order reaches it first, and the others could at best
  // tie with it, which keeps the earlier candidate.
  std::uint64_t all_ones = ~std::uint64_t{0};
  std::uint64_t any_one = 0;
  for (const std::uint64_t b : blocks) {
    all_ones &= b;
    any_one |= b;
  }
  const auto constant =
      static_cast<std::uint32_t>(~(all_ones ^ any_one) & gf2::mask_of(n));
  std::array<std::uint32_t, 17> low{};  // low[k]: lowest k constant bits
  for (int k = 1; k <= n; ++k) {
    const std::uint32_t rest = constant & ~low[k - 1];
    low[k] = low[k - 1] | (rest & (~rest + 1));
  }

  // rest_floor[k]: misses every candidate still takes after the first k
  // chunks, whatever it cached so far. Belady's MIN on the rest, started
  // empty, hits at least as often as any direct-mapped cache with as many
  // lines; a start state of L lines adds at most L hits.
  constexpr std::size_t chunk = 1024;
  const std::size_t lines = geometry.num_sets();
  std::vector<std::uint64_t> rest_floor =
      cache::min_suffix_hits(blocks, lines, chunk);
  for (std::size_t k = 0; k < rest_floor.size(); ++k) {
    const std::uint64_t rest =
        blocks.size() - std::min(k * chunk, blocks.size());
    const std::uint64_t misses = rest - rest_floor[k];
    rest_floor[k] = misses > lines ? misses - lines : 0;
  }

  ExhaustiveBitSelectResult result{
      hash::BitSelectFunction::conventional(n, m), ~std::uint64_t{0}, 0};
  std::uint32_t best_mask = (1u << m) - 1;
  cache::DirectMappedCache cache(geometry,
                                 hash::CompiledIndex::bit_select(n, best_mask));
  std::uint64_t passes = 0;
  std::uint64_t simulated = 0;
  for_each_combination(n, m, [&](std::uint32_t mask) {
    ++result.candidates;
    const std::uint32_t fixed = mask & constant;
    if (fixed != low[std::popcount(fixed)]) return;
    cache.reconfigure(hash::CompiledIndex::bit_select(n, mask));
    ++passes;
    // Once a candidate's misses plus the floor of the rest reach the best
    // so far it can at most tie, and a tie keeps the earlier candidate:
    // stop simulating it there. Within a chunk the floor at its end holds.
    std::size_t at = 0;
    for (std::size_t k = 1; at < blocks.size(); ++k) {
      const std::uint64_t stop =
          result.misses > rest_floor[k] ? result.misses - rest_floor[k] : 0;
      at += cache.run(blocks.subspan(at, std::min(chunk, blocks.size() - at)),
                      stop);
      if (cache.stats().misses >= stop) break;
    }
    simulated += at;
    if (at == blocks.size() && cache.stats().misses < result.misses) {
      result.misses = cache.stats().misses;
      best_mask = mask;
    }
  });
  XORIDX_OBS_COUNT("simulate.passes", passes);
  XORIDX_OBS_COUNT("simulate.accesses", simulated);
  (void)passes;
  (void)simulated;
  result.function = hash::BitSelectFunction(n, mask_to_positions(best_mask));
  return result;
}

ExhaustiveBitSelectResult optimal_bit_select_estimated(
    tracestore::TraceInput t, const cache::CacheGeometry& geometry,
    const profile::ConflictProfile& profile) {
  const int n = profile.hashed_bits();
  const int m = geometry.index_bits();
  if (m > n) throw std::invalid_argument("index bits exceed hashed bits");

  std::uint64_t best_estimate = ~std::uint64_t{0};
  std::uint32_t best_mask = (1u << m) - 1;
  std::uint64_t candidates = 0;
  const Word all = gf2::mask_of(n);
  // One O(1) zeta-view lookup per candidate instead of a 2^(n-m) submask
  // walk; the lazily-built view is shared with every other bit-select
  // kernel on this profile (the heuristic climber, other index widths).
  for_each_combination(n, m, [&](std::uint32_t mask) {
    const std::uint64_t est =
        estimate_misses_bit_select(profile, all & ~static_cast<Word>(mask));
    ++candidates;
    if (est < best_estimate) {
      best_estimate = est;
      best_mask = mask;
    }
  });
  hash::BitSelectFunction fn(n, mask_to_positions(best_mask));
  const cache::CacheStats stats =
      cache::simulate_direct_mapped(t, geometry, fn);
  // The Eq.-4 upper bound, as in optimize_index_with_profile.
  assert(stats.misses <= profile.compulsory_refs +
                             profile.capacity_filtered_refs + best_estimate);
  return ExhaustiveBitSelectResult{std::move(fn), stats.misses, candidates};
}

}  // namespace xoridx::search
