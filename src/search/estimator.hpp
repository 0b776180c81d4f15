// Fast Eq.-4 evaluation of candidate hash functions against a conflict
// profile. The search evaluates tens of millions of candidates per run;
// these kernels avoid canonicalizing a Subspace per candidate by working
// on raw (independent) basis vectors, and avoid re-enumerating null
// spaces per candidate at all where algebra permits:
//
//   - bit-select candidates answer in O(1) from the profile's cached
//     zeta-transform view (estimate_misses_bit_select);
//   - permutation neighbors that extend a shared d-1 dimensional core
//     cost one coset sum of 2^(d-1) terms instead of a 2^d re-enumeration
//     (coset_sum / coset_sums), because for w outside span(W)
//         estimate(span(W + w)) = estimate(W) + sum_{v in W} misses(v ^ w);
//   - a general-XOR iteration prices all of its neighbors from one
//     Walsh-Hadamard transform H_c(alpha) of the table in coordinates
//     (a, c) over the null space and a complement: a neighbor with core
//     U = ker(alpha) and coset {c(v) = c, alpha . a(v) = eps} estimates
//         (H_0(0) + H_0(alpha)) / 2 + (H_c(0) + (-1)^eps H_c(alpha)) / 2
//     (subspace_search.cpp);
//   - a one-vector swap inside an enumerated basis re-evaluates in one
//     fused Gray pass over the unchanged core (estimate_misses_swap).
//
// The enumeration kernels (estimate_misses_basis / estimate_misses_
// submasks) remain the reference implementations: the randomized property
// tests and bench/search_kernels check the algebraic kernels against them
// exactly.
#pragma once

#include <cstdint>
#include <span>

#include "gf2/bitvec.hpp"
#include "profile/conflict_profile.hpp"

namespace xoridx::search {

/// Sum of misses(v) over the span of `basis` (vectors must be linearly
/// independent; Gray-code enumeration of all 2^basis.size() members,
/// including v = 0). Reference kernel for one-off full evaluations.
[[nodiscard]] std::uint64_t estimate_misses_basis(
    const profile::ConflictProfile& profile, std::span<const gf2::Word> basis);

/// Bit-selecting special case, reference implementation: the null space
/// of a selection is the span of the unit vectors at the *unselected*
/// positions, so Eq. 4 is the sum of misses(v) over all submasks v of
/// `unselected_mask`, enumerated in O(2^popcount(unselected_mask)).
[[nodiscard]] std::uint64_t estimate_misses_submasks(
    const profile::ConflictProfile& profile, gf2::Word unselected_mask);

/// Bit-selecting fast path: the same value as estimate_misses_submasks in
/// O(1), from the profile's lazily-built subset-sum (zeta) view. The first
/// call on a profile pays the n * 2^n build.
[[nodiscard]] inline std::uint64_t estimate_misses_bit_select(
    const profile::ConflictProfile& profile, gf2::Word unselected_mask) {
  return profile.subset_sums()[static_cast<std::size_t>(unselected_mask)];
}

/// Coset sum: misses(w ^ v) summed over all 2^basis.size() members v of
/// span(basis). For w outside the span this is the Eq.-4 mass the coset
/// w + span(basis) adds on top of estimate(span(basis)), which is how the
/// hill climbers price a neighbor without re-enumerating its full null
/// space.
[[nodiscard]] std::uint64_t coset_sum(const profile::ConflictProfile& profile,
                                      std::span<const gf2::Word> basis,
                                      gf2::Word w);

/// Batched coset sums: out[i] += misses(ws[i] ^ v) for every member v of
/// span(basis) — `out` must be zero-initialized by the caller and at
/// least ws.size() long. One Gray-code enumeration of the span serves all
/// ws, giving the table lookups independent accumulator chains (the
/// prefetch-friendly batching the neighborhood scans use).
void coset_sums(const profile::ConflictProfile& profile,
                std::span<const gf2::Word> basis, std::span<const gf2::Word> ws,
                std::span<std::uint64_t> out);

/// Incremental re-evaluation under a one-vector swap: given
/// old_estimate = estimate(span(rest + old_vec)), return
/// estimate(span(rest + new_vec)). Both old_vec and new_vec must lie
/// outside span(rest). One fused Gray pass over span(rest) computes both
/// coset sums (2 * 2^rest.size() lookups over 2^rest.size() steps) —
/// half the enumeration of two independent full evaluations.
[[nodiscard]] std::uint64_t estimate_misses_swap(
    const profile::ConflictProfile& profile, std::span<const gf2::Word> rest,
    gf2::Word old_vec, gf2::Word new_vec, std::uint64_t old_estimate);

}  // namespace xoridx::search
