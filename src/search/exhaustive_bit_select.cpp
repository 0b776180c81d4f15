#include "search/exhaustive_bit_select.hpp"

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
    // Once a candidate's misses reach the best so far it can at most tie,
    // and a tie keeps the earlier candidate: stop simulating it there.
    simulated += cache.run(blocks, result.misses);
    ++passes;
    if (cache.stats().misses < result.misses) {
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
  return ExhaustiveBitSelectResult{std::move(fn), stats.misses, candidates};
}

}  // namespace xoridx::search
