// Optimal bit-selecting functions by exhaustive exact simulation
// (the baseline of Patel et al., ICCAD 2004, used in Table 3's "opt"
// column).
//
// The bit-selecting design space has only C(n, m) members, so — unlike
// XOR functions — every candidate can be simulated exactly. The paper
// notes the optimal algorithm is "very slow" and applies it only to the
// short PowerStone traces. This implementation extracts block addresses
// once and runs candidates on cache::DirectMappedCache, the same
// exact kernel as every other direct-mapped simulation, with the
// candidate's index tables built straight from its selection mask.
//
// Candidates are visited in Gosper order (ascending masks, conventional
// first) and each one stops as soon as its running miss count plus a
// floor on the misses of the rest of the trace reaches the best count so
// far: from there it can at most tie, and a tie keeps the earlier
// candidate. The floor comes from one backward pass before the sweep:
// Belady's MIN on the rest of the trace, with one line per set, less one
// miss per line for whatever the candidate has cached by then (see
// cache::min_suffix_hits). It is taken every 1024 blocks, and a candidate
// runs chunk by chunk against the floor at its chunk's end. Only a
// candidate that reaches the end of the trace can win, so the winner and
// its misses are those of a full simulation of every candidate; most
// candidates just stop after a short prefix of the trace.
//
// Not every candidate is simulated. A hashed bit that takes one value
// over the whole footprint adds the same constant to every index, and a
// direct-mapped cache's misses depend only on how its index splits the
// blocks into sets. Two selections with the same varying bits and the
// same number of constant bits therefore miss alike. Only the first of
// each such class in Gosper order (the one taking the lowest constant
// bits) runs; the rest could at best tie with it. Back-to-back repeats of
// a block, which hit under every index function, are dropped when the
// blocks are extracted from a trace.
//
// `candidates` still counts every selection, C(n, m). The obs counters
// `simulate.passes` and `simulate.accesses` count the candidates that ran
// (one per class, however early each stopped) and the accesses they
// simulated; the MIN pass counts in neither.
#pragma once

#include <cstdint>
#include <span>

#include "cache/geometry.hpp"
#include "hash/bit_select_function.hpp"
#include "profile/conflict_profile.hpp"
#include "search/search_types.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::search {

struct ExhaustiveBitSelectResult {
  hash::BitSelectFunction function;
  std::uint64_t misses = 0;       ///< exact simulated misses of the winner
  /// Selections considered: C(n, m), whether a candidate was simulated to
  /// the end of the trace, stopped at the running best, or skipped as an
  /// equal of an earlier one.
  std::uint64_t candidates = 0;
};

/// Return the m-out-of-n bit selection with the fewest *exact*
/// direct-mapped misses on the trace (the first in Gosper order among
/// ties). `hashed_bits` must be at most 16 (the paper's n). The search is
/// inherently multi-pass (every simulated candidate re-walks the trace),
/// so it extracts the block addresses once, in one pass over `t`, and
/// pays O(trace) uint64s rather than one decode pass per candidate of a
/// streamed trace.
[[nodiscard]] ExhaustiveBitSelectResult optimal_bit_select(
    tracestore::TraceInput t, const cache::CacheGeometry& geometry,
    int hashed_bits);

/// Same, over a pre-extracted block-address sequence.
[[nodiscard]] ExhaustiveBitSelectResult optimal_bit_select_blocks(
    std::span<const std::uint64_t> blocks, const cache::CacheGeometry& geometry,
    int hashed_bits);

/// Estimator-guided variant: picks the selection minimizing the Eq.-4
/// estimate instead of exact misses. Used by the estimator-accuracy
/// ablation to quantify the profiling heuristic's error in isolation. The
/// scan needs only the profile; the winner's exact misses come from one
/// simulation pass over `t`.
[[nodiscard]] ExhaustiveBitSelectResult optimal_bit_select_estimated(
    tracestore::TraceInput t, const cache::CacheGeometry& geometry,
    const profile::ConflictProfile& profile);

}  // namespace xoridx::search
