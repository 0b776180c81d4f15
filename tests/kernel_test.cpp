// Property tests for the fast Eq.-4 kernels: the zeta-transform bit-select
// view and the coset-delta incremental evaluators must agree *exactly*
// with naive null-space enumeration on arbitrary profiles — the table2
// CSV byte-identity and the shard determinism guarantees both rest on
// that — a threads=K neighborhood scan must return the same function,
// estimate and stats as the serial scan, and the general-XOR climb's
// Walsh-Hadamard neighborhood pricing must pick exactly what the
// coset-enumeration oracle (tests/xor_climb_oracle.hpp) picks.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "cache/geometry.hpp"
#include "gf2/subspace.hpp"
#include "profile/conflict_profile.hpp"
#include "search/bit_select_search.hpp"
#include "search/estimator.hpp"
#include "search/permutation_search.hpp"
#include "search/subspace_search.hpp"
#include "xor_climb_oracle.hpp"
#include "workloads/workload.hpp"

namespace xoridx::search {
namespace {

using gf2::Word;

/// Random dense-ish profile over n hashed bits.
profile::ConflictProfile random_profile(int n, std::mt19937_64& rng) {
  profile::ConflictProfile p(n, 1u << std::min(8, n));
  const int entries = 1 << std::min(n + 2, 14);
  for (int i = 0; i < entries; ++i)
    p.add(rng() & gf2::mask_of(n), 1 + rng() % 1000);
  return p;
}

/// Naive coset sum: misses(w ^ v) over all members v of span(basis),
/// enumerated member by member.
std::uint64_t naive_coset_sum(const profile::ConflictProfile& p,
                              const std::vector<Word>& basis, Word w) {
  std::uint64_t total = 0;
  const std::size_t count = std::size_t{1} << basis.size();
  for (std::size_t i = 0; i < count; ++i) {
    Word v = w;
    for (std::size_t b = 0; b < basis.size(); ++b)
      if ((i >> b) & 1) v ^= basis[b];
    total += p.misses(v);
  }
  return total;
}

TEST(KernelProperty, ZetaViewMatchesSubmaskEnumeration) {
  std::mt19937_64 rng(11);
  for (const int n : {4, 8, 12, 16}) {
    const profile::ConflictProfile p = random_profile(n, rng);
    const std::vector<std::uint64_t>& zeta = p.subset_sums();
    ASSERT_EQ(zeta.size(), std::size_t{1} << n);
    if (n <= 12) {
      // Every mask, exhaustively.
      for (Word u = 0; u < (Word{1} << n); ++u)
        ASSERT_EQ(zeta[static_cast<std::size_t>(u)],
                  estimate_misses_submasks(p, u))
            << "n=" << n << " u=" << u;
    } else {
      for (int trial = 0; trial < 2000; ++trial) {
        const Word u = rng() & gf2::mask_of(n);
        ASSERT_EQ(estimate_misses_bit_select(p, u),
                  estimate_misses_submasks(p, u))
            << "n=" << n << " u=" << u;
      }
    }
  }
}

TEST(KernelProperty, ZetaViewSurvivesCopyAndLateMutation) {
  std::mt19937_64 rng(13);
  profile::ConflictProfile p = random_profile(8, rng);
  const std::uint64_t before = p.subset_sums()[0xab];
  // A copy re-arms its own lazy cache; mutating the copy then reading its
  // view must reflect the mutation (the original's view is untouched).
  profile::ConflictProfile copy = p;
  copy.add(0x01, 7);
  EXPECT_EQ(copy.subset_sums()[0xab], before + 7);
  EXPECT_EQ(p.subset_sums()[0xab], before);
}

TEST(KernelProperty, CosetKernelsMatchNaiveEnumeration) {
  std::mt19937_64 rng(17);
  for (const int n : {4, 8, 12, 16}) {
    const profile::ConflictProfile p = random_profile(n, rng);
    for (int d = 0; d <= n; ++d) {
      const gf2::Subspace space = gf2::random_subspace(n, d, rng);
      const std::vector<Word>& basis = space.basis();

      // coset_sum against member-by-member enumeration, arbitrary w.
      for (int trial = 0; trial < 4; ++trial) {
        const Word w = rng() & gf2::mask_of(n);
        ASSERT_EQ(coset_sum(p, basis, w), naive_coset_sum(p, basis, w))
            << "n=" << n << " d=" << d;
      }

      // The extension identity estimate(span(U + w)) =
      // estimate(U) + coset_sum(U, w) for w outside U.
      if (d < n) {
        Word w = 0;
        do {
          w = rng() & gf2::mask_of(n);
        } while (space.contains(w));
        std::vector<Word> extended = basis;
        extended.push_back(w);
        ASSERT_EQ(estimate_misses_basis(p, extended),
                  estimate_misses_basis(p, basis) + coset_sum(p, basis, w))
            << "n=" << n << " d=" << d;
      }

      // Batched == elementwise.
      std::vector<Word> ws;
      for (int i = 0; i < 9; ++i) ws.push_back(rng() & gf2::mask_of(n));
      std::vector<std::uint64_t> sums(ws.size(), 0);
      coset_sums(p, basis, ws, sums);
      for (std::size_t i = 0; i < ws.size(); ++i)
        ASSERT_EQ(sums[i], coset_sum(p, basis, ws[i]))
            << "n=" << n << " d=" << d << " i=" << i;

      // One-vector swap: rest = basis minus its last vector.
      if (d >= 1) {
        std::vector<Word> rest(basis.begin(), basis.end() - 1);
        const gf2::Subspace rest_space = gf2::Subspace::span_of(n, rest);
        Word new_vec = 0;
        do {
          new_vec = rng() & gf2::mask_of(n);
        } while (rest_space.contains(new_vec));
        std::vector<Word> swapped = rest;
        swapped.push_back(new_vec);
        ASSERT_EQ(
            estimate_misses_swap(p, rest, basis.back(), new_vec,
                                 estimate_misses_basis(p, basis)),
            estimate_misses_basis(p, swapped))
            << "n=" << n << " d=" << d;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Serial vs threads=K identity over the table2-small grid
// ---------------------------------------------------------------------------

bool stats_equal(const SearchStats& a, const SearchStats& b) {
  return a.evaluations == b.evaluations && a.iterations == b.iterations &&
         a.restarts_used == b.restarts_used &&
         a.start_estimate == b.start_estimate &&
         a.best_estimate == b.best_estimate;
}

TEST(ParallelScanIdentity, PermutationAndBitSelectOverTable2Small) {
  const std::vector<cache::CacheGeometry> geometries = {
      cache::CacheGeometry(1024, 4), cache::CacheGeometry(4096, 4),
      cache::CacheGeometry(16384, 4)};
  for (const std::string& name :
       workloads::workload_names(workloads::Suite::table2)) {
    const workloads::Workload w =
        workloads::make_workload(name, workloads::Scale::small);
    for (const cache::CacheGeometry& geom : geometries) {
      const profile::ConflictProfile p =
          profile::build_conflict_profile(w.data, geom, 16);
      SearchOptions serial;
      SearchOptions par;
      par.threads = 3;
      const PermutationSearchResult ps =
          search_permutation(p, geom.index_bits(), serial);
      const PermutationSearchResult pp =
          search_permutation(p, geom.index_bits(), par);
      EXPECT_EQ(ps.function.describe(), pp.function.describe())
          << name << " @ " << geom.to_string();
      EXPECT_TRUE(stats_equal(ps.stats, pp.stats))
          << name << " @ " << geom.to_string();

      const BitSelectSearchResult bs =
          search_bit_select(p, geom.index_bits(), serial);
      const BitSelectSearchResult bp =
          search_bit_select(p, geom.index_bits(), par);
      EXPECT_EQ(bs.function.describe(), bp.function.describe())
          << name << " @ " << geom.to_string();
      EXPECT_TRUE(stats_equal(bs.stats, bp.stats))
          << name << " @ " << geom.to_string();
    }
  }
}

TEST(ParallelScanIdentity, GeneralXorWithRestartsOverTable2Subset) {
  // The general-XOR neighborhood is the expensive one (~130k candidates
  // per iteration at d = 8): a workload subset keeps the suite fast while
  // still covering every geometry and the restart path.
  const std::vector<std::string> names = {
      workloads::workload_names(workloads::Suite::table2)[0],
      workloads::workload_names(workloads::Suite::table2)[1]};
  const std::vector<cache::CacheGeometry> geometries = {
      cache::CacheGeometry(4096, 4), cache::CacheGeometry(16384, 4)};
  for (const std::string& name : names) {
    const workloads::Workload w =
        workloads::make_workload(name, workloads::Scale::small);
    for (const cache::CacheGeometry& geom : geometries) {
      const profile::ConflictProfile p =
          profile::build_conflict_profile(w.data, geom, 16);
      SearchOptions serial;
      serial.random_restarts = 1;
      SearchOptions par = serial;
      par.threads = 3;
      const SubspaceSearchResult xs =
          search_general_xor(p, geom.index_bits(), serial);
      const SubspaceSearchResult xp =
          search_general_xor(p, geom.index_bits(), par);
      EXPECT_EQ(xs.function.describe(), xp.function.describe())
          << name << " @ " << geom.to_string();
      EXPECT_EQ(xs.null_space, xp.null_space)
          << name << " @ " << geom.to_string();
      EXPECT_TRUE(stats_equal(xs.stats, xp.stats))
          << name << " @ " << geom.to_string();

      const SubspaceSearchResult xo =
          oracle::coset_search_general_xor(p, geom.index_bits(), serial);
      EXPECT_EQ(xs.null_space, xo.null_space)
          << name << " @ " << geom.to_string();
      EXPECT_TRUE(stats_equal(xs.stats, xo.stats))
          << name << " @ " << geom.to_string();
    }
  }
}

TEST(ParallelScanIdentity, ThreadsZeroMeansHardwareAndStaysIdentical) {
  std::mt19937_64 rng(23);
  const profile::ConflictProfile p = random_profile(12, rng);
  SearchOptions serial;
  SearchOptions hw;
  hw.threads = 0;
  const PermutationSearchResult a = search_permutation(p, 6, serial);
  const PermutationSearchResult b = search_permutation(p, 6, hw);
  EXPECT_EQ(a.function.describe(), b.function.describe());
  EXPECT_TRUE(stats_equal(a.stats, b.stats));
}

// ---------------------------------------------------------------------------
// General-XOR climb: Walsh-Hadamard pricing vs the coset-enumeration oracle
// ---------------------------------------------------------------------------

void expect_matches_oracle(const profile::ConflictProfile& p, int m,
                           const SearchOptions& options,
                           const std::string& what) {
  const SubspaceSearchResult fast = search_general_xor(p, m, options);
  const SubspaceSearchResult slow =
      oracle::coset_search_general_xor(p, m, options);
  EXPECT_EQ(fast.function.describe(), slow.function.describe()) << what;
  EXPECT_EQ(fast.null_space, slow.null_space) << what;
  EXPECT_TRUE(stats_equal(fast.stats, slow.stats))
      << what << ": evaluations " << fast.stats.evaluations << " vs "
      << slow.stats.evaluations << ", iterations " << fast.stats.iterations
      << " vs " << slow.stats.iterations << ", best "
      << fast.stats.best_estimate << " vs " << slow.stats.best_estimate;
}

TEST(XorTransformDifferential, RandomProfilesEveryNullSpaceDimension) {
  std::mt19937_64 rng(29);
  for (const int n : {6, 8, 12, 16}) {
    const profile::ConflictProfile p = random_profile(n, rng);
    std::vector<int> dims;
    if (n == 16) {
      dims = {4, 6, 8};
    } else {
      for (int d = 1; d < n; ++d) dims.push_back(d);
    }
    for (const int d : dims) {
      SearchOptions options;
      options.random_restarts = 2;
      options.seed = rng();
      expect_matches_oracle(p, n - d, options,
                            "n=" + std::to_string(n) +
                                " d=" + std::to_string(d));
    }
  }
}

TEST(XorTransformDifferential, TiesKeepTheEarliestCandidate) {
  // Every nonzero entry equal, with the whole conventional null space
  // conflicting: most neighbors of the start tie at the same estimate,
  // so the winner of each iteration is decided by scan rank alone.
  std::mt19937_64 rng(31);
  for (const int n : {8, 12}) {
    for (const int d : {2, n / 2, n - 2}) {
      const int m = n - d;
      profile::ConflictProfile p(n, 64);
      for (Word v = 1; v < (Word{1} << n); ++v)
        if ((v & gf2::mask_of(m)) == 0 || rng() % 8 == 0) p.add(v, 5);
      SearchOptions options;
      options.random_restarts = 3;
      expect_matches_oracle(p, m, options,
                            "ties n=" + std::to_string(n) +
                                " d=" + std::to_string(d));
    }
  }
}

TEST(XorTransformDifferential, EmptyProfileStaysAtTheStart) {
  const profile::ConflictProfile empty(12, 64);
  for (const int d : {1, 6, 11}) {
    SearchOptions options;
    options.random_restarts = 1;
    expect_matches_oracle(empty, 12 - d, options,
                          "empty d=" + std::to_string(d));
    EXPECT_EQ(search_general_xor(empty, 12 - d, options).stats.iterations, 0);
  }
}

// ---------------------------------------------------------------------------
// SearchStats::evaluations convention
// ---------------------------------------------------------------------------

TEST(EvaluationConvention, CountsCandidatesNotEnumerationWork) {
  // One per candidate considered, regardless of evaluation strategy: on a
  // flat landscape the first neighborhood is scanned once and the counts
  // have closed forms (the documented convention — comparable across
  // incremental kernels, thread counts, shard boundaries and pre-rewrite
  // reports).
  const profile::ConflictProfile empty(8, 64);  // n = 8, flat landscape
  for (const int threads : {1, 3}) {
    SearchOptions opt;
    opt.threads = threads;

    // Permutation, m = 4, d = 4: start + d * m neighbors.
    const PermutationSearchResult perm = search_permutation(empty, 4, opt);
    EXPECT_EQ(perm.stats.evaluations, 1u + 4u * 4u) << threads;
    EXPECT_EQ(perm.stats.iterations, 0) << threads;

    // General XOR, d = 4: start + (2^d - 1) * 2 * (2^(n-d) - 1) neighbors.
    const SubspaceSearchResult gen = search_general_xor(empty, 4, opt);
    EXPECT_EQ(gen.stats.evaluations, 1u + 15u * 2u * 15u) << threads;
    EXPECT_EQ(gen.stats.iterations, 0) << threads;

    // Bit-select, m = 4: start + selected * unselected drop/add pairs.
    const BitSelectSearchResult bits = search_bit_select(empty, 4, opt);
    EXPECT_EQ(bits.stats.evaluations, 1u + 4u * 4u) << threads;
    EXPECT_EQ(bits.stats.iterations, 0) << threads;
  }
}

}  // namespace
}  // namespace xoridx::search
