// Trace-driven simulation drivers and 3C miss classification.
//
// Each driver takes a tracestore::TraceInput — an in-memory Trace (walked
// in place) or a TraceSource (reset, then pulled in batches, so resident
// decoded state stays bounded by the batch) — and makes one pass over it.
// The direct-mapped drivers all run DirectMappedCache, the one exact
// direct-mapped kernel. Each driver call adds one pass and the accesses
// it simulated to the `simulate.passes` / `simulate.accesses` counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/geometry.hpp"
#include "hash/index_function.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::cache {

/// Run a trace through a direct-mapped cache using `index_fn` and return
/// the miss count. Convenience wrapper used everywhere in the evaluation.
[[nodiscard]] CacheStats simulate_direct_mapped(
    tracestore::TraceInput t, const CacheGeometry& geometry,
    const hash::IndexFunction& index_fn);

/// Same, over block addresses already shifted by the offset bits: one
/// DirectMappedCache::run over the span.
[[nodiscard]] CacheStats simulate_direct_mapped_blocks(
    std::span<const std::uint64_t> blocks, const CacheGeometry& geometry,
    const hash::IndexFunction& index_fn);

/// Hits of Belady's MIN (optimal replacement) in a `lines`-line cache
/// started empty, on every suffix of `blocks` that starts at a multiple of
/// `stride`: element k is for the suffix from block min(k * stride, size),
/// so the last element is the empty suffix's 0. No cache of `lines` lines
/// hits more often, whatever its index function, replacement or start
/// state, except that a start state of `lines` blocks can add up to
/// `lines` hits. One backward pass; counts no simulation pass.
[[nodiscard]] std::vector<std::uint64_t> min_suffix_hits(
    std::span<const std::uint64_t> blocks, std::size_t lines,
    std::size_t stride);

/// Fully-associative LRU miss count at equal capacity (Table 3, `FA`).
[[nodiscard]] CacheStats simulate_fully_associative(
    tracestore::TraceInput t, const CacheGeometry& geometry);

/// Three-C miss breakdown of a direct-mapped cache run (Hill's model, as
/// used implicitly by the paper's profiling filters): a miss is compulsory
/// on first touch, capacity if a fully-associative LRU cache of equal size
/// also misses, and conflict otherwise.
struct MissBreakdown {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t compulsory = 0;
  std::uint64_t capacity = 0;
  std::uint64_t conflict = 0;

  friend bool operator==(const MissBreakdown&, const MissBreakdown&) = default;
};

[[nodiscard]] MissBreakdown classify_misses(tracestore::TraceInput t,
                                            const CacheGeometry& geometry,
                                            const hash::IndexFunction& index_fn);

}  // namespace xoridx::cache
