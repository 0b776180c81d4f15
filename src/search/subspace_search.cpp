// General-XOR hill climb: each iteration prices its whole neighborhood
// from one Walsh-Hadamard transform of the profile table.
//
// Write v in coordinates (a, c) over the current null space's basis and
// the complement basis, and let H_c(alpha) = sum_a (-1)^(alpha . a)
// misses(a, c) (a length-2^d transform per c). The neighbor for
// hyperplane alpha, complement member c and epsilon has core
// U = ker(alpha) and coset {v : c(v) = c, alpha . a(v) = epsilon}, so
//   estimate(U)  = (H_0(0) + H_0(alpha)) / 2
//   coset mass   = (H_c(0) + (-1)^epsilon H_c(alpha)) / 2
// and its estimate is the sum — exact integer identities. One iteration
// costs 2^n gathers and d * 2^n butterflies instead of a 2^(d-1)-lookup
// coset sum per neighbor.
#include "search/subspace_search.hpp"

#include <bit>
#include <cassert>
#include <cstdint>
#include <random>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "search/estimator.hpp"
#include "search/scan_best.hpp"

namespace xoridx::search {

namespace {

using gf2::Subspace;
using gf2::Word;

struct ClimbOutcome {
  Subspace space;
  std::uint64_t estimate = 0;
  std::uint64_t evaluations = 0;
  int iterations = 0;
};

/// Basis of the hyperplane U = ker(alpha) of span(basis), where alpha is
/// a nonzero functional on the basis coordinates: untouched basis vectors
/// where alpha_i = 0, and b_i ^ k0 where alpha_i = 1 (i != j), with the
/// pivot k0 = b_j, j = ctz(alpha), the basis vector outside U.
std::vector<Word> hyperplane_basis(const std::vector<Word>& basis,
                                   Word alpha) {
  const int j = std::countr_zero(alpha);
  const Word k0 = basis[static_cast<std::size_t>(j)];
  std::vector<Word> core;
  for (int i = 0; i < static_cast<int>(basis.size()); ++i) {
    if (i == j) continue;
    const Word b = basis[static_cast<std::size_t>(i)];
    core.push_back(gf2::get_bit(alpha, i) ? (b ^ k0) : b);
  }
  return core;
}

/// One steepest-descent run from `start`.
ClimbOutcome climb(const profile::ConflictProfile& profile, Subspace start,
                   int max_iterations) {
  XORIDX_SPAN("search", "climb_general_xor");
  const int n = profile.hashed_bits();
  const int d = start.dim();
  const std::size_t hyperplanes = (std::size_t{1} << d) - 1;
  const std::size_t row = std::size_t{1} << (n - d);  // complement members
  // Serial candidate order: alpha ascending, then the Gray-code walk over
  // nonzero complement members c = gray(ci), epsilon innermost.
  const std::ptrdiff_t per_alpha = 2 * (static_cast<std::ptrdiff_t>(row) - 1);

  ClimbOutcome out{std::move(start), 0, 0, 0};
  out.estimate = estimate_misses_basis(profile, out.space.basis());
  out.evaluations = 1;

  // h[(a << (n - d)) | c] = misses(a, c), transformed in place along a
  // to H_c(alpha); row alpha is contiguous over c. Every value is a
  // signed sum of at most pair_count, so int64 is exact.
  std::vector<std::int64_t> h(std::size_t{1} << n);
  for (int iter = 0; iter < max_iterations; ++iter) {
    const std::vector<Word>& basis = out.space.basis();
    std::vector<Word> coords = out.space.complement_basis();
    assert(static_cast<int>(coords.size()) == n - d);
    coords.insert(coords.end(), basis.begin(), basis.end());

    Word v = 0;
    h[0] = static_cast<std::int64_t>(profile.misses(0));
    for (std::size_t i = 1; i < h.size(); ++i) {
      v ^= coords[static_cast<std::size_t>(std::countr_zero(i))];
      h[i ^ (i >> 1)] = static_cast<std::int64_t>(profile.misses(v));
    }
    for (std::size_t half = row; half < h.size(); half <<= 1)
      for (std::size_t base = 0; base < h.size(); base += 2 * half)
        for (std::size_t k = base; k < base + half; ++k) {
          const std::int64_t x = h[k];
          const std::int64_t y = h[k + half];
          h[k] = x + y;
          h[k + half] = x - y;
        }
    assert(static_cast<std::uint64_t>(h[0]) == out.estimate);

    // Candidate (alpha, ci, eps) is span(U + w) with U = ker(alpha) and
    // w = gray(ci) . C ^ eps * k0: its coset w + U has c(v) = gray(ci).
    ScanBest best;
    best.estimate = out.estimate;
    for (std::size_t alpha = 1; alpha <= hyperplanes; ++alpha) {
      const std::int64_t* h_alpha = h.data() + alpha * row;
      const std::int64_t core = (h[0] + h_alpha[0]) / 2;
      std::ptrdiff_t rank = static_cast<std::ptrdiff_t>(alpha - 1) * per_alpha;
      for (std::size_t ci = 1; ci < row; ++ci, rank += 2) {
        const std::size_t c = ci ^ (ci >> 1);
        const std::int64_t sum = h[c];
        const std::int64_t corr = h_alpha[c];
        best.offer(static_cast<std::uint64_t>(core + (sum + corr) / 2), rank);
        best.offer(static_cast<std::uint64_t>(core + (sum - corr) / 2),
                   rank + 1);
      }
    }
    // Evaluation-count convention (SearchStats::evaluations): exactly one
    // per (alpha, complement member, epsilon) candidate, however priced.
    out.evaluations += static_cast<std::uint64_t>(hyperplanes) *
                       static_cast<std::uint64_t>(per_alpha);

    if (best.rank < 0) break;  // local optimum
    // Rebuild the winner alone from its rank.
    const Word alpha = static_cast<Word>(best.rank / per_alpha) + 1;
    const std::size_t ci =
        static_cast<std::size_t>(best.rank % per_alpha) / 2 + 1;
    std::vector<Word> winner = hyperplane_basis(basis, alpha);
    Word w = (best.rank % 2 != 0)
                 ? basis[static_cast<std::size_t>(std::countr_zero(alpha))]
                 : 0;
    for (std::size_t g = ci ^ (ci >> 1); g != 0; g &= g - 1)
      w ^= coords[static_cast<std::size_t>(std::countr_zero(g))];
    winner.push_back(w);
    out.space = Subspace::span_of(n, winner);
    assert(out.space.dim() == d);
    out.estimate = best.estimate;
    ++out.iterations;
  }
  return out;
}

}  // namespace

SubspaceSearchResult search_general_xor(
    const profile::ConflictProfile& profile, int index_bits,
    const SearchOptions& options) {
  const int n = profile.hashed_bits();
  const int m = index_bits;
  const int d = n - m;
  assert(d >= 0);

  // Null space of the conventional index: the high-order directions.
  std::vector<Word> high;
  high.reserve(static_cast<std::size_t>(d));
  for (int i = m; i < n; ++i) high.push_back(gf2::unit(i));
  const Subspace conventional = Subspace::span_of(n, high);

  ClimbOutcome best = climb(profile, conventional, options.max_iterations);

  SearchStats stats;
  stats.evaluations = best.evaluations;
  stats.iterations = best.iterations;
  stats.start_estimate = estimate_misses_basis(profile, conventional.basis());

  std::mt19937_64 rng(options.seed);
  for (int r = 0; r < options.random_restarts; ++r) {
    ClimbOutcome candidate =
        climb(profile, gf2::random_subspace(n, d, rng), options.max_iterations);
    stats.evaluations += candidate.evaluations;
    ++stats.restarts_used;
    if (candidate.estimate < best.estimate) best = std::move(candidate);
  }
  stats.best_estimate = best.estimate;
  // Bulk per search: matches SearchStats::evaluations exactly.
  XORIDX_OBS_COUNT("search.evaluations", stats.evaluations);

  hash::XorFunction fn = hash::XorFunction::from_null_space(best.space);
  return SubspaceSearchResult{std::move(fn), std::move(best.space), stats};
}

}  // namespace xoridx::search
