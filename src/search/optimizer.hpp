// End-to-end application-specific index optimization: the public entry
// point a system integrator would call.
//
// Pipeline (paper Sections 3 and 6): profile the trace once per cache
// geometry (Figure 1), search the requested function class for the
// smallest Eq.-4 estimate, then re-simulate the chosen function exactly.
// Because the estimator is heuristic the chosen function can occasionally
// lose to the conventional index (Section 6 observes this, e.g. rijndael
// at 1 KB); with `revert_if_worse` the optimizer tests for that and falls
// back to the conventional function, as the paper suggests.
#pragma once

#include <memory>

#include "cache/geometry.hpp"
#include "cache/simulate.hpp"
#include "hash/index_function.hpp"
#include "profile/conflict_profile.hpp"
#include "search/search_types.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::search {

struct OptimizeOptions {
  SearchOptions search;
  int hashed_bits = 16;  ///< the paper's n
  /// Re-simulate and fall back to conventional indexing on regression.
  bool revert_if_worse = false;
};

struct OptimizationResult {
  std::unique_ptr<hash::IndexFunction> function;
  std::uint64_t baseline_misses = 0;   ///< conventional index, exact
  std::uint64_t optimized_misses = 0;  ///< chosen function, exact
  std::uint64_t estimated_misses = 0;  ///< Eq.-4 value of the chosen function
  std::uint64_t accesses = 0;
  bool reverted = false;
  SearchStats stats;

  /// Percentage of misses removed relative to the conventional index
  /// (negative when the heuristic added misses), as reported in Tables
  /// 2 and 3.
  [[nodiscard]] double reduction_percent() const {
    if (baseline_misses == 0) return 0.0;
    return 100.0 *
           (static_cast<double>(baseline_misses) -
            static_cast<double>(optimized_misses)) /
           static_cast<double>(baseline_misses);
  }
};

/// Optimize the index function of a direct-mapped cache for one trace:
/// one profiling pass plus the exact re-simulation passes.
[[nodiscard]] OptimizationResult optimize_index(
    tracestore::TraceInput t, const cache::CacheGeometry& geometry,
    const OptimizeOptions& options = {});

/// Same, reusing a prebuilt profile (the profile depends only on the
/// geometry and trace, so one profile serves all function classes and
/// fan-in limits of a Table-2 row). The search runs on the profile alone;
/// the exact baseline and winner re-simulations are passes over `t` (one
/// pass when `known_baseline` is supplied). Callers that already
/// simulated the conventional index for this (trace, geometry) — e.g. the
/// engine's per-cell baseline cache — pass it as `known_baseline` to skip
/// the redundant full-trace pass.
[[nodiscard]] OptimizationResult optimize_index_with_profile(
    tracestore::TraceInput t, const cache::CacheGeometry& geometry,
    const profile::ConflictProfile& profile, const OptimizeOptions& options,
    const cache::CacheStats* known_baseline = nullptr);

}  // namespace xoridx::search
