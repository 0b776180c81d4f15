// Trace-driven simulation drivers and 3C miss classification.
//
// The direct-mapped drivers all run DirectMappedCache, the one exact
// direct-mapped kernel. Each driver call adds one pass and the accesses
// it simulated to the `simulate.passes` / `simulate.accesses` counters.
#pragma once

#include <cstdint>
#include <span>

#include "cache/geometry.hpp"
#include "hash/index_function.hpp"
#include "trace/trace.hpp"

namespace xoridx::tracestore {
class TraceSource;
}

namespace xoridx::cache {

/// Run a trace through a direct-mapped cache using `index_fn` and return
/// the miss count. Convenience wrapper used everywhere in the evaluation.
[[nodiscard]] CacheStats simulate_direct_mapped(
    const trace::Trace& t, const CacheGeometry& geometry,
    const hash::IndexFunction& index_fn);

/// Same, over block addresses already shifted by the offset bits: one
/// DirectMappedCache::run over the span.
[[nodiscard]] CacheStats simulate_direct_mapped_blocks(
    std::span<const std::uint64_t> blocks, const CacheGeometry& geometry,
    const hash::IndexFunction& index_fn);

/// Fully-associative LRU miss count at equal capacity (Table 3, `FA`).
[[nodiscard]] CacheStats simulate_fully_associative(
    const trace::Trace& t, const CacheGeometry& geometry);

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

[[nodiscard]] MissBreakdown classify_misses(const trace::Trace& t,
                                            const CacheGeometry& geometry,
                                            const hash::IndexFunction& index_fn);

// Streaming variants: one pass pulled from a TraceSource (each driver
// resets the source first, so one source object serves several passes).
// Results are identical to the in-memory overloads; resident decoded
// state stays bounded by the source's batch/chunk size.

[[nodiscard]] CacheStats simulate_direct_mapped(
    tracestore::TraceSource& source, const CacheGeometry& geometry,
    const hash::IndexFunction& index_fn);

[[nodiscard]] CacheStats simulate_fully_associative(
    tracestore::TraceSource& source, const CacheGeometry& geometry);

[[nodiscard]] MissBreakdown classify_misses(
    tracestore::TraceSource& source, const CacheGeometry& geometry,
    const hash::IndexFunction& index_fn);

}  // namespace xoridx::cache
