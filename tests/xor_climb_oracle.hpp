// Reference general-XOR hill climb that prices each neighbor by direct
// coset enumeration: for every hyperplane U of the current null space it
// sums estimate(U) and one coset sum of 2^(d-1) table lookups per
// candidate direction. search::search_general_xor prices the same
// neighborhood from one Walsh-Hadamard transform per iteration; this
// oracle must agree with it on the chosen function, the null space and
// every SearchStats field. Shared by tests/kernel_test.cpp and the
// xor-neighborhood-transform row of bench/search_kernels.cpp.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "gf2/subspace.hpp"
#include "hash/xor_function.hpp"
#include "profile/conflict_profile.hpp"
#include "search/estimator.hpp"
#include "search/search_types.hpp"
#include "search/subspace_search.hpp"

namespace xoridx::search::oracle {

struct CosetClimbOutcome {
  gf2::Subspace space;
  std::uint64_t estimate = 0;
  std::uint64_t evaluations = 0;
  int iterations = 0;
};

/// One steepest-descent run from `start`. Candidates are visited alpha
/// ascending, then the Gray-code walk over nonzero complement members,
/// epsilon innermost; the first strict improvement of the best estimate
/// so far wins, so ties keep the earliest candidate.
inline CosetClimbOutcome coset_climb(const profile::ConflictProfile& profile,
                                     gf2::Subspace start, int max_iterations) {
  using gf2::Word;
  const int n = profile.hashed_bits();
  const int d = start.dim();
  constexpr std::size_t batch = 16;

  CosetClimbOutcome out{std::move(start), 0, 0, 0};
  out.estimate = estimate_misses_basis(profile, out.space.basis());
  out.evaluations = 1;

  for (int iter = 0; iter < max_iterations; ++iter) {
    const std::vector<Word>& basis = out.space.basis();
    const std::vector<Word> comp = out.space.complement_basis();
    const std::size_t comp_count = std::size_t{1} << comp.size();

    std::uint64_t best = out.estimate;
    std::vector<Word> winner;
    std::vector<Word> core;
    std::vector<Word> ws;
    std::vector<std::uint64_t> sums;
    for (Word alpha = 1; alpha < (Word{1} << d); ++alpha) {
      const int j = std::countr_zero(alpha);
      const Word k0 = basis[static_cast<std::size_t>(j)];
      core.clear();
      for (int i = 0; i < d; ++i) {
        if (i == j) continue;
        const Word b = basis[static_cast<std::size_t>(i)];
        core.push_back(gf2::get_bit(alpha, i) ? (b ^ k0) : b);
      }
      const std::uint64_t core_estimate = estimate_misses_basis(profile, core);

      Word c = 0;
      for (std::size_t ci = 1; ci < comp_count; ++ci) {
        c ^= comp[static_cast<std::size_t>(std::countr_zero(ci))];
        ws.push_back(c);
        ws.push_back(c ^ k0);
      }
      for (std::size_t first = 0; first < ws.size(); first += batch) {
        const std::size_t count = std::min(batch, ws.size() - first);
        const std::span<const Word> group(ws.data() + first, count);
        sums.assign(count, 0);
        coset_sums(profile, core, group, sums);
        out.evaluations += count;
        for (std::size_t k = 0; k < count; ++k)
          if (core_estimate + sums[k] < best) {
            best = core_estimate + sums[k];
            winner = core;
            winner.push_back(group[k]);
          }
      }
      ws.clear();
    }
    if (winner.empty()) break;  // local optimum
    out.space = gf2::Subspace::span_of(n, winner);
    out.estimate = best;
    ++out.iterations;
  }
  return out;
}

/// search_general_xor on the reference climb: the conventional start,
/// then options.random_restarts seeded random starts, keeping the first
/// strictly best climb.
inline SubspaceSearchResult coset_search_general_xor(
    const profile::ConflictProfile& profile, int index_bits,
    const SearchOptions& options = {}) {
  const int n = profile.hashed_bits();
  const int d = n - index_bits;
  std::vector<gf2::Word> high;
  for (int i = index_bits; i < n; ++i) high.push_back(gf2::unit(i));
  const gf2::Subspace conventional = gf2::Subspace::span_of(n, high);

  CosetClimbOutcome best =
      coset_climb(profile, conventional, options.max_iterations);
  SearchStats stats;
  stats.evaluations = best.evaluations;
  stats.iterations = best.iterations;
  stats.start_estimate = estimate_misses_basis(profile, conventional.basis());
  std::mt19937_64 rng(options.seed);
  for (int r = 0; r < options.random_restarts; ++r) {
    CosetClimbOutcome candidate = coset_climb(
        profile, gf2::random_subspace(n, d, rng), options.max_iterations);
    stats.evaluations += candidate.evaluations;
    ++stats.restarts_used;
    if (candidate.estimate < best.estimate) best = std::move(candidate);
  }
  stats.best_estimate = best.estimate;
  hash::XorFunction fn = hash::XorFunction::from_null_space(best.space);
  return SubspaceSearchResult{std::move(fn), std::move(best.space), stats};
}

}  // namespace xoridx::search::oracle
