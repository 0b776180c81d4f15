// Search-kernel microbenchmark: the Eq.-4 hot paths before and after the
// algebraic kernels (zeta-transform bit-select, coset-delta permutation
// climbing, Walsh-Hadamard general-XOR neighborhoods), with exact
// equivalence checks between every fast kernel and its naive-enumeration
// reference. The binary exits nonzero if any equivalence check fails —
// CI runs it as the perf-smoke gate (no wall-time gating, only
// correctness).
//
//   search_kernels [--small] [--json] [--seed S]
//
// With --json the machine-readable report (bench_util.hpp JsonReport
// shape) goes to stdout and the human-readable table to stderr; a
// baseline from a CI-class machine is checked in as
// BENCH_search_kernels.json.
#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "engine/thread_pool.hpp"
#include "gf2/bitvec.hpp"
#include "gf2/enumerate.hpp"
#include "hash/permutation_function.hpp"
#include "profile/conflict_profile.hpp"
#include "search/estimator.hpp"
#include "search/permutation_search.hpp"
#include "search/subspace_search.hpp"
#include "tests/xor_climb_oracle.hpp"
#include "trace/trace.hpp"

namespace {

using namespace xoridx;
using gf2::Word;

constexpr int n_bits = 16;  // the paper's n; acceptance targets 16-bit

int failures = 0;

/// Keeps timed loops observable without polluting the failure count.
volatile std::uint64_t g_sink = 0;

void check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "EQUIVALENCE FAILURE: %s\n", what);
  ++failures;
}

/// Deterministic synthetic conflict profile: a few heavy conflict vectors
/// (the power-of-two-stride signature real traces show) on top of a broad
/// low-count tail, so both the dense zeta build and the sparse-ish
/// enumeration paths see realistic data.
profile::ConflictProfile make_profile(std::uint64_t seed) {
  profile::ConflictProfile p(n_bits, 1u << 8);
  std::mt19937_64 rng(seed);
  for (int heavy = 0; heavy < 24; ++heavy)
    p.add(rng() & gf2::mask_of(n_bits), 1000 + rng() % 50000);
  for (int i = 0; i < 50000; ++i)
    p.add(rng() & gf2::mask_of(n_bits), 1 + rng() % 100);
  return p;
}

using gf2::for_each_combination;

// ------------------------------------------------------- naive reference
// The pre-PR permutation climb: every neighbor re-enumerates the full 2^d
// null space. Kept here (not in the library) as the measured baseline and
// the equivalence reference for the rewired search.

std::vector<Word> null_basis(const gf2::Matrix& g, int m) {
  std::vector<Word> basis(static_cast<std::size_t>(g.rows()));
  for (int i = 0; i < g.rows(); ++i)
    basis[static_cast<std::size_t>(i)] = (gf2::unit(i) << m) | g.row(i);
  return basis;
}

struct NaiveOutcome {
  gf2::Matrix g{0, 0};
  std::uint64_t estimate = 0;
  std::uint64_t evaluations = 0;
  int iterations = 0;
};

NaiveOutcome naive_perm_climb(const profile::ConflictProfile& profile,
                              gf2::Matrix g, int m, int max_col_weight,
                              int max_iterations) {
  const int d = g.rows();
  std::vector<Word> basis = null_basis(g, m);
  NaiveOutcome out{std::move(g),
                   search::estimate_misses_basis(profile, basis), 1, 0};
  for (int iter = 0; iter < max_iterations; ++iter) {
    int best_r = -1;
    int best_c = -1;
    std::uint64_t best = out.estimate;
    for (int r = 0; r < d; ++r) {
      for (int c = 0; c < m; ++c) {
        const bool setting = !out.g.get(r, c);
        if (setting && out.g.column_weight(c) >= max_col_weight) continue;
        basis[static_cast<std::size_t>(r)] ^= gf2::unit(c);
        const std::uint64_t est =
            search::estimate_misses_basis(profile, basis);
        basis[static_cast<std::size_t>(r)] ^= gf2::unit(c);
        ++out.evaluations;
        if (est < best) {
          best = est;
          best_r = r;
          best_c = c;
        }
      }
    }
    if (best_r < 0) break;
    out.g.set(best_r, best_c, !out.g.get(best_r, best_c));
    basis[static_cast<std::size_t>(best_r)] ^= gf2::unit(best_c);
    out.estimate = best;
    ++out.iterations;
  }
  return out;
}

/// Pre-PR search_permutation (conventional start + seeded restarts) on
/// the naive climb; mirrors src/search/permutation_search.cpp restart
/// handling so stats are comparable field by field.
search::SearchStats naive_perm_search(const profile::ConflictProfile& profile,
                                      int m, const search::SearchOptions& opt,
                                      std::string* winner) {
  const int d = profile.hashed_bits() - m;
  const int max_w = opt.max_fan_in == search::SearchOptions::unlimited
                        ? d
                        : std::max(0, opt.max_fan_in - 1);
  NaiveOutcome best =
      naive_perm_climb(profile, gf2::Matrix(d, m), m, max_w,
                       opt.max_iterations);
  search::SearchStats stats;
  stats.evaluations = best.evaluations;
  stats.iterations = best.iterations;
  {
    std::vector<Word> basis = null_basis(gf2::Matrix(d, m), m);
    stats.start_estimate = search::estimate_misses_basis(profile, basis);
  }
  std::mt19937_64 rng(opt.seed);
  for (int restart = 0; restart < opt.random_restarts; ++restart) {
    // Same draw sequence as random_constrained_g: a fresh distribution
    // per restart, consumed column-major.
    std::uniform_int_distribution<int> coin(0, 1);
    gf2::Matrix g(d, m);
    for (int c = 0; c < m; ++c) {
      int weight = 0;
      for (int r = 0; r < d && weight < max_w; ++r)
        if (coin(rng) != 0) {
          g.set(r, c, true);
          ++weight;
        }
    }
    NaiveOutcome candidate =
        naive_perm_climb(profile, std::move(g), m, max_w, opt.max_iterations);
    stats.evaluations += candidate.evaluations;
    ++stats.restarts_used;
    if (candidate.estimate < best.estimate) best = std::move(candidate);
  }
  stats.best_estimate = best.estimate;
  *winner = hash::PermutationFunction(profile.hashed_bits(), m,
                                      std::move(best.g))
                .describe();
  return stats;
}

bool stats_equal(const search::SearchStats& a, const search::SearchStats& b) {
  return a.evaluations == b.evaluations && a.iterations == b.iterations &&
         a.restarts_used == b.restarts_used &&
         a.start_estimate == b.start_estimate &&
         a.best_estimate == b.best_estimate;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  bool json = false;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
  }
  const unsigned hardware = engine::ThreadPool::default_threads();
  std::FILE* out = json ? stderr : stdout;
  bench::JsonReport report("search_kernels");

  const profile::ConflictProfile profile = make_profile(seed);
  std::fprintf(out,
               "search kernels: n = %d, %zu distinct conflict vectors, "
               "total mass %llu, %u hardware threads%s\n\n",
               n_bits, profile.distinct_vectors(),
               static_cast<unsigned long long>(profile.total_mass()), hardware,
               small ? " [--small]" : "");

  // ---------------------------------------- exhaustive bit-select sweep
  // The design-space index widths the repo actually sweeps (256 B..16 KB
  // caches, hw_design_space / the paper's Table 3 geometries). The
  // pre-PR kernel walks 2^(n-m) submasks per candidate; the zeta view
  // answers each candidate in O(1) after one lazy n * 2^n build shared
  // by the whole sweep — the cold timing includes that build.
  {
    const std::vector<int> widths = {6, 8, 10, 12};
    const Word all = gf2::mask_of(n_bits);
    const int timing_reps = small ? 2 : 5;
    std::vector<std::uint32_t> naive_masks;
    std::vector<std::uint64_t> naive_ests;
    std::uint64_t naive_candidates = 0;
    double naive_ms = 1e30;  // best of timing_reps
    for (int rep = 0; rep < timing_reps; ++rep) {
      naive_masks.clear();
      naive_ests.clear();
      naive_candidates = 0;
      bench::StopWatch naive_watch;
      for (const int m : widths) {
        std::uint64_t best = ~std::uint64_t{0};
        std::uint32_t best_mask = (1u << m) - 1;
        for_each_combination(n_bits, m, [&](std::uint32_t mask) {
          const std::uint64_t est = search::estimate_misses_submasks(
              profile, all & ~static_cast<Word>(mask));
          ++naive_candidates;
          if (est < best) {
            best = est;
            best_mask = mask;
          }
        });
        naive_masks.push_back(best_mask);
        naive_ests.push_back(best);
      }
      naive_ms = std::min(naive_ms, naive_watch.ms());
    }

    // Cold fast sweep: a fresh copy starts with an unbuilt zeta view, so
    // this timing includes the lazy build — the end-to-end cost the first
    // bit-select search on a profile pays.
    double cold_ms = 1e30;
    std::vector<std::uint32_t> fast_masks;
    std::vector<std::uint64_t> fast_ests;
    std::optional<profile::ConflictProfile> cold;
    for (int rep = 0; rep < timing_reps; ++rep) {
      cold.emplace(profile);
      fast_masks.clear();
      fast_ests.clear();
      bench::StopWatch cold_watch;
      for (const int m : widths) {
        std::uint64_t best = ~std::uint64_t{0};
        std::uint32_t best_mask = (1u << m) - 1;
        for_each_combination(n_bits, m, [&](std::uint32_t mask) {
          const std::uint64_t est = search::estimate_misses_bit_select(
              *cold, all & ~static_cast<Word>(mask));
          if (est < best) {
            best = est;
            best_mask = mask;
          }
        });
        fast_masks.push_back(best_mask);
        fast_ests.push_back(best);
      }
      cold_ms = std::min(cold_ms, cold_watch.ms());
    }
    const bool sweep_identical =
        fast_masks == naive_masks && fast_ests == naive_ests;
    check(sweep_identical,
          "zeta bit-select sweep winners != naive submask sweep");

    // Warm sweep: the view is built; this is the steady-state candidate
    // rate every later bit-select kernel on the profile sees.
    const int warm_reps = small ? 3 : 10;
    bench::StopWatch warm_watch;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < warm_reps; ++rep)
      for (const int m : widths)
        for_each_combination(n_bits, m, [&](std::uint32_t mask) {
          sink ^= search::estimate_misses_bit_select(
              *cold, all & ~static_cast<Word>(mask));
        });
    const double warm_ms = warm_watch.ms() / warm_reps;
    g_sink = sink;

    std::fprintf(out,
                 "exhaustive bit-select, n=16, m in {6,8,10,12} "
                 "(%llu candidates):\n"
                 "  naive submask walk   %9.3f ms  (%.3g evals/s)\n"
                 "  zeta view, cold      %9.3f ms  (build included)\n"
                 "  zeta view, warm      %9.3f ms  (%.3g evals/s)\n"
                 "  speedup              %9.2fx cold, %.2fx warm\n\n",
                 static_cast<unsigned long long>(naive_candidates), naive_ms,
                 bench::per_second(naive_candidates, naive_ms), cold_ms,
                 warm_ms, bench::per_second(naive_candidates, warm_ms),
                 naive_ms / cold_ms, naive_ms / warm_ms);
    report.row("bitselect-exhaustive-16")
        .num("n", n_bits)
        .str("widths", "6,8,10,12")
        .num("candidates", naive_candidates)
        .num("naive_wall_ms", naive_ms)
        .num("naive_evals_per_s", bench::per_second(naive_candidates, naive_ms))
        .num("wall_ms", cold_ms)
        .num("warm_wall_ms", warm_ms)
        .num("evals_per_s", bench::per_second(naive_candidates, warm_ms))
        .num("speedup", naive_ms / cold_ms)
        .num("speedup_warm", naive_ms / warm_ms)
        .boolean("identical", sweep_identical);
  }

  // --------------------------------------------- coset-delta micro rates
  // One hill-climbing neighbor: full 2^d re-enumeration vs coset delta
  // over the shared 2^(d-1) core, batched Gray-code enumeration.
  for (const int d : small ? std::vector<int>{8} : std::vector<int>{6, 8, 10}) {
    std::mt19937_64 rng(seed + static_cast<std::uint64_t>(d));
    std::vector<Word> basis;
    for (int i = 0; i < d; ++i)
      basis.push_back(gf2::unit(n_bits - 1 - i) | (rng() & gf2::mask_of(8)));
    const std::vector<Word> core(basis.begin(), basis.end() - 1);
    const int batch = 16;
    std::vector<Word> ws;
    for (int i = 0; i < batch; ++i)
      ws.push_back(basis.back() ^ gf2::unit(i % (n_bits - 1)));

    const int reps = (small ? 2000 : 20000) / d;
    bench::StopWatch naive_watch;
    std::uint64_t naive_sink = 0;
    std::vector<Word> candidate = basis;
    for (int rep = 0; rep < reps; ++rep)
      for (const Word w : ws) {
        candidate.back() = w;
        naive_sink += search::estimate_misses_basis(profile, candidate);
      }
    const double naive_ms = naive_watch.ms();

    bench::StopWatch coset_watch;
    std::uint64_t coset_sink = 0;
    std::vector<std::uint64_t> sums;
    const std::uint64_t core_estimate =
        search::estimate_misses_basis(profile, core);
    for (int rep = 0; rep < reps; ++rep) {
      sums.assign(ws.size(), 0);
      search::coset_sums(profile, core, ws, sums);
      for (const std::uint64_t s : sums) coset_sink += core_estimate + s;
    }
    const double coset_ms = coset_watch.ms();
    check(naive_sink == coset_sink,
          "batched coset-delta neighbor estimates != full re-enumeration");

    const std::uint64_t evals =
        static_cast<std::uint64_t>(reps) * static_cast<std::uint64_t>(batch);
    std::fprintf(out,
                 "neighbor evaluation, d=%2d: full 2^d %8.3f ms, "
                 "coset delta %8.3f ms  (%.3g -> %.3g evals/s, %.2fx)\n",
                 d, naive_ms, coset_ms, bench::per_second(evals, naive_ms),
                 bench::per_second(evals, coset_ms), naive_ms / coset_ms);
    report.row("coset-delta-neighbor")
        .num("d", d)
        .num("batch", batch)
        .num("evaluations", evals)
        .num("naive_wall_ms", naive_ms)
        .num("wall_ms", coset_ms)
        .num("evals_per_s", bench::per_second(evals, coset_ms))
        .num("speedup", naive_ms / coset_ms)
        .boolean("identical", naive_sink == coset_sink);
  }
  std::fprintf(out, "\n");

  // ------------------------------------------ 16-in permutation search
  // End-to-end search_permutation (m = 8, d = 8, unlimited fan-in, seeded
  // restarts) against the pre-PR full-re-enumeration climb kept above.
  {
    const int m = 8;
    search::SearchOptions opt;
    opt.random_restarts = small ? 2 : 6;
    // One search is sub-millisecond: best-of-reps keeps the recorded
    // speedup stable against scheduler noise on shared/CI machines.
    const int reps = small ? 4 : 15;

    std::string naive_winner;
    search::SearchStats naive_stats;
    double naive_ms = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      bench::StopWatch naive_watch;
      naive_stats = naive_perm_search(profile, m, opt, &naive_winner);
      naive_ms = std::min(naive_ms, naive_watch.ms());
    }

    std::optional<search::PermutationSearchResult> fast;
    double fast_ms = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      bench::StopWatch fast_watch;
      fast = search::search_permutation(profile, m, opt);
      fast_ms = std::min(fast_ms, fast_watch.ms());
    }
    const bool perm_identical = fast->function.describe() == naive_winner &&
                                stats_equal(fast->stats, naive_stats);
    check(perm_identical,
          "rewired permutation search != pre-PR kernels "
          "(function/estimate/stats)");

    std::fprintf(out,
                 "permutation search 16-in, m=8, restarts=%d "
                 "(%llu evaluations):\n"
                 "  pre-PR kernels       %9.3f ms  (%.3g evals/s)\n"
                 "  coset-delta kernels  %9.3f ms  (%.3g evals/s, %.2fx)\n\n",
                 opt.random_restarts,
                 static_cast<unsigned long long>(fast->stats.evaluations),
                 naive_ms, bench::per_second(naive_stats.evaluations, naive_ms),
                 fast_ms, bench::per_second(fast->stats.evaluations, fast_ms),
                 naive_ms / fast_ms);
    report.row("perm-search-16in")
        .num("m", m)
        .num("restarts", opt.random_restarts)
        .num("evaluations", fast->stats.evaluations)
        .num("naive_wall_ms", naive_ms)
        .num("wall_ms", fast_ms)
        .num("evals_per_s", bench::per_second(fast->stats.evaluations, fast_ms))
        .num("speedup", naive_ms / fast_ms)
        .boolean("identical", perm_identical);
  }

  // ------------------------------------- general-XOR neighborhood pricing
  // The general-XOR climb scans (2^d - 1) * 2(2^(n-d) - 1) neighbors per
  // iteration. The coset-enumeration oracle pays 2^(d-1) lookups per
  // neighbor; the library prices the whole neighborhood from one
  // Walsh-Hadamard transform of the profile table. Same searches, same
  // iteration cap: the function, null space and stats must be identical.
  for (const int d : {6, 8}) {
    const int m = n_bits - d;
    search::SearchOptions opt;
    opt.max_iterations = small ? 2 : 5;
    opt.random_restarts = 1;

    bench::StopWatch naive_watch;
    const search::SubspaceSearchResult naive =
        search::oracle::coset_search_general_xor(profile, m, opt);
    const double naive_ms = naive_watch.ms();

    std::optional<search::SubspaceSearchResult> fast;
    double fast_ms = 1e30;  // best of reps: one search is a few ms
    for (int rep = 0; rep < (small ? 3 : 10); ++rep) {
      bench::StopWatch fast_watch;
      fast = search::search_general_xor(profile, m, opt);
      fast_ms = std::min(fast_ms, fast_watch.ms());
    }
    const bool identical = fast->null_space == naive.null_space &&
                           fast->function.describe() ==
                               naive.function.describe() &&
                           stats_equal(fast->stats, naive.stats);
    check(identical,
          "transform general-XOR search != coset-enumeration oracle "
          "(function/null space/stats)");

    const std::uint64_t evals = fast->stats.evaluations;
    std::fprintf(out,
                 "general XOR search, d=%d, %d iterations/climb, restarts=1 "
                 "(%llu evaluations):\n"
                 "  coset enumeration    %9.3f ms  (%.3g evals/s)\n"
                 "  transform            %9.3f ms  (%.3g evals/s, %.2fx)\n\n",
                 d, opt.max_iterations, static_cast<unsigned long long>(evals),
                 naive_ms, bench::per_second(evals, naive_ms), fast_ms,
                 bench::per_second(evals, fast_ms), naive_ms / fast_ms);
    report.row("xor-neighborhood-transform")
        .num("d", d)
        .num("m", m)
        .num("max_iterations", opt.max_iterations)
        .num("evaluations", evals)
        .num("naive_wall_ms", naive_ms)
        .num("wall_ms", fast_ms)
        .num("evals_per_s", bench::per_second(evals, fast_ms))
        .num("speedup", naive_ms / fast_ms)
        .boolean("identical", identical);
  }

  if (json) report.write(std::cout);
  if (failures != 0) {
    std::fprintf(stderr, "FAIL: %d kernel-equivalence check(s) failed\n",
                 failures);
    return 1;
  }
  std::fprintf(out, "all kernel-equivalence checks passed\n");
  return 0;
}
