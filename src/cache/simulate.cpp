#include "cache/simulate.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "cache/direct_mapped.hpp"
#include "cache/fully_associative.hpp"
#include "obs/metrics.hpp"

namespace xoridx::cache {

namespace {

/// One simulation pass, counted once per driver call.
void count_pass(std::uint64_t accesses) {
  XORIDX_OBS_COUNT("simulate.passes", 1);
  XORIDX_OBS_COUNT("simulate.accesses", accesses);
  (void)accesses;
}

/// Run accesses through the cache's run loop as block addresses, one
/// chunk at a time.
void run_accesses(DirectMappedCache& cache,
                  std::span<const trace::Access> accesses, int shift) {
  std::array<std::uint64_t, 1024> blocks;
  for (std::size_t at = 0; at < accesses.size(); at += blocks.size()) {
    const std::size_t n = std::min(blocks.size(), accesses.size() - at);
    for (std::size_t i = 0; i < n; ++i)
      blocks[i] = accesses[at + i].addr >> shift;
    cache.run(std::span<const std::uint64_t>(blocks.data(), n));
  }
}

}  // namespace

CacheStats simulate_direct_mapped(tracestore::TraceInput t,
                                  const CacheGeometry& geometry,
                                  const hash::IndexFunction& index_fn) {
  DirectMappedCache cache(geometry, index_fn);
  t.for_each_batch([&](std::span<const trace::Access> batch) {
    run_accesses(cache, batch, geometry.offset_bits());
  });
  count_pass(cache.stats().accesses);
  return cache.stats();
}

CacheStats simulate_direct_mapped_blocks(std::span<const std::uint64_t> blocks,
                                         const CacheGeometry& geometry,
                                         const hash::IndexFunction& index_fn) {
  DirectMappedCache cache(geometry, index_fn);
  cache.run(blocks);
  count_pass(cache.stats().accesses);
  return cache.stats();
}

std::vector<std::uint64_t> min_suffix_hits(
    std::span<const std::uint64_t> blocks, std::size_t lines,
    std::size_t stride) {
  assert(lines > 0 && stride > 0);
  const std::size_t n = blocks.size();
  std::vector<std::uint64_t> hits((n + stride - 1) / stride + 1, 0);
  // MIN as interval packing. A hit at j on the block last used at i keeps
  // that block in a line over accesses i+1 .. j-1, beside the line the
  // access in between needs, so at most lines-1 such reuse intervals may
  // overlap at any access. Taking the intervals by decreasing i and
  // placing each on the busy slot that frees up soonest after it ends (or
  // on an idle slot) packs the most of them; the packing after i is the
  // best one for the suffix from i, so one backward pass serves them all.
  std::unordered_map<std::uint64_t, std::size_t> next_use;
  // Per busy slot: the access its earliest placed interval starts at.
  std::set<std::size_t> busy;
  std::size_t idle = lines - 1;
  std::uint64_t packed = 0;
  for (std::size_t i = n; i-- > 0;) {
    const auto [it, first_use] = next_use.try_emplace(blocks[i], i);
    if (!first_use) {
      const std::size_t j = std::exchange(it->second, i);
      if (j == i + 1) {
        ++packed;  // holds the block over no other access
      } else if (auto slot = busy.lower_bound(j - 1); slot != busy.end()) {
        auto node = busy.extract(slot);
        node.value() = i;  // below every other key: i only decreases
        busy.insert(busy.begin(), std::move(node));
        ++packed;
      } else if (idle > 0) {
        --idle;
        busy.insert(busy.begin(), i);
        ++packed;
      }
    }
    if (i % stride == 0) hits[i / stride] = packed;
  }
  return hits;
}

CacheStats simulate_fully_associative(tracestore::TraceInput t,
                                      const CacheGeometry& geometry) {
  FullyAssociativeCache cache(geometry.num_blocks());
  const int shift = geometry.offset_bits();
  t.for_each_batch([&](std::span<const trace::Access> batch) {
    for (const trace::Access& a : batch) cache.access(a.addr >> shift);
  });
  count_pass(cache.stats().accesses);
  return cache.stats();
}

MissBreakdown classify_misses(tracestore::TraceInput t,
                              const CacheGeometry& geometry,
                              const hash::IndexFunction& index_fn) {
  DirectMappedCache dm(geometry, index_fn);
  FullyAssociativeCache fa(geometry.num_blocks());
  std::unordered_set<std::uint64_t> seen;
  // Distinct blocks <= references, but cap the upfront bucket reservation
  // so it does not grow with trace length; the set still grows to the
  // footprint.
  seen.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(t.size(), std::uint64_t{1} << 22)));
  MissBreakdown out;
  const int shift = geometry.offset_bits();
  t.for_each_batch([&](std::span<const trace::Access> batch) {
    for (const trace::Access& a : batch) {
      const std::uint64_t block = a.addr >> shift;
      ++out.accesses;
      const bool dm_hit = dm.access(block);
      const bool fa_hit = fa.access(block);
      const bool first_touch = seen.insert(block).second;
      if (dm_hit) continue;
      ++out.misses;
      if (first_touch)
        ++out.compulsory;
      else if (!fa_hit)
        ++out.capacity;
      else
        ++out.conflict;
    }
  });
  count_pass(out.accesses);
  return out;
}

}  // namespace xoridx::cache
