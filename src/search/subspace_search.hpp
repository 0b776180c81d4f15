// Hill climbing over null spaces for general XOR functions
// (Section 3.2).
//
// The state is a d-dimensional subspace K of GF(2)^n (d = n - m). Two
// null spaces are neighbors when they differ in exactly one dimension:
// dim(K ∩ K') = d - 1. The neighborhood is enumerated without duplicates
// by factoring each neighbor as K' = span(U, w) where
//   - U = K ∩ K' ranges over the 2^d - 1 hyperplanes of K (one per
//     nonzero functional α on K's basis coordinates), and
//   - w = c ⊕ ε·k0 with c ranging over the 2^m - 1 nonzero members of a
//     fixed complement of K, ε ∈ {0,1}, and k0 a basis vector of K
//     outside U.
// For a fixed U these (c, ε) pairs give pairwise distinct K', and
// U = K' ∩ K is recoverable from K', so no candidate repeats across
// hyperplanes. One Walsh-Hadamard transform per iteration prices every
// candidate (subspace_search.cpp); the search is serial.
#pragma once

#include "gf2/subspace.hpp"
#include "hash/xor_function.hpp"
#include "profile/conflict_profile.hpp"
#include "search/search_types.hpp"

namespace xoridx::search {

struct SubspaceSearchResult {
  hash::XorFunction function;
  gf2::Subspace null_space;
  SearchStats stats;
};

/// Find a general XOR function minimizing the Eq.-4 estimate. Starts at
/// the null space of the conventional index, span(e_m, ..., e_{n-1}).
[[nodiscard]] SubspaceSearchResult search_general_xor(
    const profile::ConflictProfile& profile, int index_bits,
    const SearchOptions& options = {});

}  // namespace xoridx::search
