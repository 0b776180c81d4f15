#include "search/permutation_search.hpp"

#include <algorithm>
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

using gf2::Matrix;
using gf2::Word;

/// Null-space basis rows [e_i | G_i] of the permutation function [G; I_m].
std::vector<Word> null_basis(const Matrix& g, int m) {
  std::vector<Word> basis(static_cast<std::size_t>(g.rows()));
  for (int i = 0; i < g.rows(); ++i)
    basis[static_cast<std::size_t>(i)] =
        (gf2::unit(i) << m) | g.row(i);
  return basis;
}

struct ClimbOutcome {
  Matrix g;
  std::uint64_t estimate = 0;
  std::uint64_t evaluations = 0;
  int iterations = 0;
};

ClimbOutcome climb(const profile::ConflictProfile& profile, Matrix g, int m,
                   int max_g_column_weight, int max_iterations) {
  XORIDX_SPAN("search", "climb_permutation");
  const int d = g.rows();  // n - m
  std::vector<Word> basis = null_basis(g, m);
  std::uint64_t current = estimate_misses_basis(profile, basis);
  ClimbOutcome out{std::move(g), current, 1, 0};

  std::vector<Word> core(static_cast<std::size_t>(d > 0 ? d - 1 : 0));
  std::vector<Word> ws;
  std::vector<std::ptrdiff_t> ranks;
  std::vector<std::uint64_t> sums;
  ws.reserve(static_cast<std::size_t>(m));
  ranks.reserve(static_cast<std::size_t>(m));
  for (int iter = 0; iter < max_iterations; ++iter) {
    // Neighbors toggle G[r][c], i.e. replace basis vector r with
    // basis[r] ^ e_c. All m candidates of a row share the d-1 dimensional
    // core span(basis \ {basis[r]}): price the core once, then each
    // neighbor costs one coset sum over 2^(d-1) members instead of a full
    // 2^d re-enumeration — and the row's coset sums run batched over a
    // single Gray-code pass. Candidates are ranked r * m + c (r outer,
    // c inner).
    ScanBest best;
    best.estimate = out.estimate;
    std::uint64_t scan_evaluations = 0;
    for (std::size_t r = 0; r < static_cast<std::size_t>(d); ++r) {
      std::size_t k = 0;
      for (std::size_t i = 0; i < static_cast<std::size_t>(d); ++i)
        if (i != r) core[k++] = basis[i];
      ws.clear();
      ranks.clear();
      for (int c = 0; c < m; ++c) {
        const bool setting = !out.g.get(static_cast<int>(r), c);
        if (setting && out.g.column_weight(c) >= max_g_column_weight)
          continue;  // fan-in cap would be exceeded
        ws.push_back(basis[r] ^ gf2::unit(c));
        ranks.push_back(static_cast<std::ptrdiff_t>(r) * m + c);
      }
      if (ws.empty()) continue;
      // estimate(span(core + w)) = estimate(core) + coset_sum(core, w);
      // every w of this row carries the distinct high bit e_r, so it
      // lies outside span(core) and the identity is exact.
      const std::uint64_t core_estimate = estimate_misses_basis(profile, core);
      sums.assign(ws.size(), 0);
      coset_sums(profile, core, ws, sums);
      scan_evaluations += ws.size();
      for (std::size_t i = 0; i < ws.size(); ++i)
        best.offer(core_estimate + sums[i], ranks[i]);
    }
    out.evaluations += scan_evaluations;
    // Evaluation-count convention (SearchStats::evaluations): one per
    // candidate passing the fan-in gate, independent of evaluation
    // strategy.
    assert(scan_evaluations <= static_cast<std::uint64_t>(d) *
                                   static_cast<std::uint64_t>(m));
    if (best.rank < 0) break;  // local optimum (steepest descent stops)
    const int best_r = static_cast<int>(best.rank / m);
    const int best_c = static_cast<int>(best.rank % m);
    out.g.set(best_r, best_c, !out.g.get(best_r, best_c));
    basis[static_cast<std::size_t>(best_r)] ^= gf2::unit(best_c);
    out.estimate = best.estimate;
    ++out.iterations;
  }
  return out;
}

Matrix random_constrained_g(int d, int m, int max_col_weight,
                            std::mt19937_64& rng) {
  Matrix g(d, m);
  std::uniform_int_distribution<int> coin(0, 1);
  for (int c = 0; c < m; ++c) {
    int weight = 0;
    for (int r = 0; r < d && weight < max_col_weight; ++r) {
      if (coin(rng) != 0) {
        g.set(r, c, true);
        ++weight;
      }
    }
  }
  return g;
}

}  // namespace

PermutationSearchResult search_permutation(
    const profile::ConflictProfile& profile, int index_bits,
    const SearchOptions& options) {
  const int n = profile.hashed_bits();
  const int m = index_bits;
  const int d = n - m;
  assert(d >= 0);
  const int max_g_weight =
      options.max_fan_in == SearchOptions::unlimited
          ? d
          : std::max(0, options.max_fan_in - 1);

  // Paper start point: the conventional index (G = 0).
  ClimbOutcome best = climb(profile, Matrix(d, m), m, max_g_weight,
                            options.max_iterations);
  std::uint64_t start_estimate = best.estimate;
  {
    // Record the estimate of the *starting* function, before any move.
    std::vector<Word> basis = null_basis(Matrix(d, m), m);
    start_estimate = estimate_misses_basis(profile, basis);
  }

  SearchStats stats;
  stats.evaluations = best.evaluations;
  stats.iterations = best.iterations;
  stats.start_estimate = start_estimate;

  std::mt19937_64 rng(options.seed);
  for (int r = 0; r < options.random_restarts; ++r) {
    ClimbOutcome candidate =
        climb(profile, random_constrained_g(d, m, max_g_weight, rng), m,
              max_g_weight, options.max_iterations);
    stats.evaluations += candidate.evaluations;
    ++stats.restarts_used;
    if (candidate.estimate < best.estimate) best = std::move(candidate);
  }
  stats.best_estimate = best.estimate;
  // Bulk per search: matches SearchStats::evaluations exactly.
  XORIDX_OBS_COUNT("search.evaluations", stats.evaluations);

  return PermutationSearchResult{
      hash::PermutationFunction(n, m, std::move(best.g)), stats};
}

}  // namespace xoridx::search
