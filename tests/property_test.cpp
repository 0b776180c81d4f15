// Property-based sweeps across modules: parameterized gtest suites
// checking the algebraic invariants the paper's machinery rests on, over
// many random instances and dimension combinations.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <tuple>

#include "cache/simulate.hpp"
#include "gf2/counting.hpp"
#include "gf2/matrix.hpp"
#include "gf2/subspace.hpp"
#include "hash/bit_select_function.hpp"
#include "hash/function_properties.hpp"
#include "hash/hardware_cost.hpp"
#include "hash/permutation_function.hpp"
#include "hash/xor_function.hpp"
#include "profile/conflict_profile.hpp"
#include "search/estimator.hpp"
#include "search/permutation_search.hpp"
#include "trace/generators.hpp"

namespace xoridx {
namespace {

using gf2::Matrix;
using gf2::Subspace;
using gf2::Word;

// ---------------------------------------------------------------------------
// GF(2) algebra over (n, m) dimension sweeps
// ---------------------------------------------------------------------------

class DimensionSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DimensionSweep, NullSpaceDimensionTheorem) {
  const auto [n, m] = GetParam();
  std::mt19937_64 rng(static_cast<unsigned>(n * 37 + m));
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix h = Matrix::random(n, m, rng);
    EXPECT_EQ(gf2::null_space(h).dim(), n - h.rank());
  }
}

TEST_P(DimensionSweep, FullRankFunctionsReachEverySet) {
  const auto [n, m] = GetParam();
  if (m > n) GTEST_SKIP();
  std::mt19937_64 rng(static_cast<unsigned>(n * 41 + m));
  const Matrix h = Matrix::random_full_rank(n, m, rng);
  std::set<Word> images;
  for (Word x = 0; x < (Word{1} << n); ++x) images.insert(h.apply(x));
  EXPECT_EQ(images.size(), Word{1} << m);
}

TEST_P(DimensionSweep, KernelCosetsPartitionTheSpace) {
  const auto [n, m] = GetParam();
  if (m > n) GTEST_SKIP();
  std::mt19937_64 rng(static_cast<unsigned>(n * 43 + m));
  const Matrix h = Matrix::random_full_rank(n, m, rng);
  const Subspace kernel = gf2::null_space(h);
  // Two addresses collide iff their XOR is in the kernel (Eq. 2).
  for (int trial = 0; trial < 200; ++trial) {
    const Word x = rng() & gf2::mask_of(n);
    const Word y = rng() & gf2::mask_of(n);
    EXPECT_EQ(h.apply(x) == h.apply(y), kernel.contains(x ^ y));
  }
}

INSTANTIATE_TEST_SUITE_P(SmallDims, DimensionSweep,
                         ::testing::Values(std::make_tuple(4, 2),
                                           std::make_tuple(6, 3),
                                           std::make_tuple(8, 4),
                                           std::make_tuple(8, 6),
                                           std::make_tuple(10, 5),
                                           std::make_tuple(10, 8),
                                           std::make_tuple(12, 10)));

// ---------------------------------------------------------------------------
// Function classes: inclusion hierarchy and tag soundness
// ---------------------------------------------------------------------------

class FunctionSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FunctionSeedSweep, BitSelectIsAOneInXorFunction) {
  std::mt19937_64 rng(GetParam());
  std::vector<int> all(16);
  for (int i = 0; i < 16; ++i) all[static_cast<std::size_t>(i)] = i;
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(8);
  const hash::BitSelectFunction bs(16, all);
  const Matrix h = bs.to_matrix();
  EXPECT_TRUE(hash::is_bit_selecting(h));
  EXPECT_TRUE(hash::respects_fan_in(h, 1));
  EXPECT_EQ(h.rank(), 8);
}

TEST_P(FunctionSeedSweep, PermutationMatrixHasIdentityLowRows) {
  std::mt19937_64 rng(GetParam() ^ 0xabcdu);
  const hash::PermutationFunction f(16, 8, Matrix::random(8, 8, rng));
  const Matrix h = f.to_matrix();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(h.row(i), gf2::unit(i));
  EXPECT_EQ(h.rank(), 8);
}

TEST_P(FunctionSeedSweep, AllClassesAreTagSound) {
  std::mt19937_64 rng(GetParam() ^ 0x7777u);
  const hash::PermutationFunction perm(12, 6, Matrix::random(6, 6, rng));
  const hash::XorFunction general(Matrix::random_full_rank(12, 6, rng));
  std::vector<int> pos = {0, 2, 5, 7, 9, 11};
  const hash::BitSelectFunction select(12, pos);
  for (const hash::IndexFunction* f :
       {static_cast<const hash::IndexFunction*>(&perm),
        static_cast<const hash::IndexFunction*>(&general),
        static_cast<const hash::IndexFunction*>(&select)}) {
    std::set<std::pair<Word, Word>> seen;
    for (Word x = 0; x < 4096; ++x)
      EXPECT_TRUE(seen.insert({f->index(x), f->tag(x)}).second);
  }
}

TEST_P(FunctionSeedSweep, HighAddressBitsOnlyMoveTheTag) {
  std::mt19937_64 rng(GetParam() ^ 0x3333u);
  const hash::PermutationFunction f(16, 8, Matrix::random(8, 8, rng));
  for (int trial = 0; trial < 50; ++trial) {
    const Word low = rng() & gf2::mask_of(16);
    const Word high = (rng() & 0xffff) << 16;
    EXPECT_EQ(f.index(low), f.index(low | high));
    if (high != 0) {
      EXPECT_NE(f.tag(low), f.tag(low | high));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FunctionSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

// ---------------------------------------------------------------------------
// Hardware cost model invariants
// ---------------------------------------------------------------------------

class CostSweep : public ::testing::TestWithParam<int> {};

TEST_P(CostSweep, OptimizationNeverIncreasesSwitches) {
  const int m = GetParam();
  const int n = 16;
  EXPECT_LE(hash::switch_count(hash::ReconfigurableKind::bit_select_optimized,
                               n, m),
            hash::switch_count(hash::ReconfigurableKind::bit_select_naive, n,
                               m));
}

TEST_P(CostSweep, GeneralXorCostsMoreThanItsBitSelectSubnetwork) {
  const int m = GetParam();
  EXPECT_GT(
      hash::switch_count(hash::ReconfigurableKind::general_xor_2in, 16, m),
      hash::switch_count(hash::ReconfigurableKind::bit_select_optimized, 16,
                         m));
}

TEST_P(CostSweep, PermutationWiresShrinkWithLargerCaches) {
  const int m = GetParam();
  if (m >= 15) GTEST_SKIP();
  const auto now =
      hash::hardware_cost(hash::ReconfigurableKind::permutation_based_2in, 16,
                          m);
  const auto bigger =
      hash::hardware_cost(hash::ReconfigurableKind::permutation_based_2in, 16,
                          m + 1);
  // More index bits -> fewer hashed high bits -> narrower selectors.
  EXPECT_LE(bigger.wires_horizontal, now.wires_horizontal);
}

INSTANTIATE_TEST_SUITE_P(IndexWidths, CostSweep,
                         ::testing::Range(2, 15));

// ---------------------------------------------------------------------------
// Cache model properties across geometries
// ---------------------------------------------------------------------------

class GeometrySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GeometrySweep, WorkingSetWithinCapacityHasOnlyColdMissesUnderFA) {
  const cache::CacheGeometry geom(GetParam(), 4);
  const std::size_t blocks = geom.num_blocks();
  trace::Trace t;
  for (int rep = 0; rep < 5; ++rep)
    for (std::size_t b = 0; b < blocks; ++b)
      t.append(b * 4, trace::AccessKind::read);
  EXPECT_EQ(cache::simulate_fully_associative(t, geom).misses, blocks);
}

TEST_P(GeometrySweep, PermutationFunctionsAreConflictFreeOnSequentialRuns) {
  // The Section-4 theorem applied to the cache: a sequential walk of
  // exactly num_blocks() blocks never conflicts under any permutation-
  // based function, for any geometry.
  const cache::CacheGeometry geom(GetParam(), 4);
  std::mt19937_64 rng(geom.size_bytes);
  const hash::PermutationFunction f(
      16, geom.index_bits(),
      Matrix::random(16 - geom.index_bits(), geom.index_bits(), rng));
  trace::Trace t;
  for (int rep = 0; rep < 4; ++rep)
    for (std::uint64_t b = 0; b < geom.num_blocks(); ++b)
      t.append(b * 4, trace::AccessKind::read);
  const cache::CacheStats stats = cache::simulate_direct_mapped(t, geom, f);
  EXPECT_EQ(stats.misses, geom.num_blocks());
}

TEST_P(GeometrySweep, ConflictsVanishWhenTheCacheIsLargeEnough) {
  const cache::CacheGeometry geom(GetParam(), 4);
  const trace::Trace t = trace::random_trace(
      0, geom.num_blocks() / 2, 4, 20000, geom.size_bytes ^ 0x9e37u);
  const hash::XorFunction conv =
      hash::XorFunction::conventional(16, geom.index_bits());
  const cache::MissBreakdown b = cache::classify_misses(t, geom, conv);
  EXPECT_EQ(b.capacity, 0u);  // half-capacity footprint
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeometrySweep,
                         ::testing::Values(256u, 1024u, 4096u, 16384u));

// ---------------------------------------------------------------------------
// Profiler and estimator properties
// ---------------------------------------------------------------------------

class ProfileSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProfileSeedSweep, EstimateIsMonotoneInSubspaceInclusion) {
  // If N1 is a subspace of N2, Eq. 4 gives estimate(N1) <= estimate(N2):
  // coarser functions can only alias more.
  const trace::Trace t = trace::random_trace(0, 500, 4, 8000, GetParam());
  const profile::ConflictProfile p =
      profile::build_conflict_profile(t, cache::CacheGeometry(1024, 4), 12);
  std::mt19937_64 rng(GetParam() ^ 0x1234u);
  for (int trial = 0; trial < 10; ++trial) {
    Subspace small_space = gf2::random_subspace(12, 3, rng);
    Subspace big_space = small_space;
    while (big_space.dim() < 5) big_space.insert(rng() & gf2::mask_of(12));
    EXPECT_LE(p.estimate_misses(small_space), p.estimate_misses(big_space));
  }
}

TEST_P(ProfileSeedSweep, TotalMassBoundsEveryEstimate) {
  const trace::Trace t = trace::random_trace(0, 500, 4, 8000, GetParam());
  const profile::ConflictProfile p =
      profile::build_conflict_profile(t, cache::CacheGeometry(1024, 4), 12);
  std::mt19937_64 rng(GetParam() ^ 0x4321u);
  const std::uint64_t everything = p.total_mass() + p.misses(0);
  for (int trial = 0; trial < 10; ++trial) {
    const Subspace ns = gf2::random_subspace(12, 4, rng);
    EXPECT_LE(p.estimate_misses(ns), everything);
  }
}

TEST_P(ProfileSeedSweep, ProfileCountsAreTraceOrderSensitiveButTotalStable) {
  // Reversing a trace changes which pairs are counted, but reference
  // bookkeeping must stay consistent.
  const trace::Trace t = trace::random_trace(0, 300, 4, 5000, GetParam());
  const cache::CacheGeometry geom(1024, 4);
  const profile::ConflictProfile p = profile::build_conflict_profile(t, geom, 12);
  EXPECT_EQ(p.references,
            p.compulsory_refs + p.capacity_filtered_refs + p.profiled_refs);
  EXPECT_EQ(p.references, t.size());
}

TEST_P(ProfileSeedSweep, SearchResultEstimateIsRealizedByTheFunction) {
  // The estimate reported for the winning permutation function equals
  // Eq. 4 evaluated on that function's null space.
  const trace::Trace t = trace::random_trace(0, 800, 4, 10000, GetParam());
  const cache::CacheGeometry geom(1024, 4);
  const profile::ConflictProfile p = profile::build_conflict_profile(
      t, geom, 16);
  const search::PermutationSearchResult r =
      search::search_permutation(p, geom.index_bits());
  EXPECT_EQ(p.estimate_misses(r.function.null_space()),
            r.stats.best_estimate);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileSeedSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

/// Blocks built from a few n-bit low patterns, each under a few tags
/// above bit n: two blocks that differ only above the hashed bits
/// collide under every function and are counted in misses(0).
trace::Trace above_hashed_bits_trace(int n, std::mt19937_64& rng) {
  std::vector<Word> lows(1 + rng() % 6);
  for (Word& low : lows) low = rng() & gf2::mask_of(n);
  const std::uint64_t tags = 2 + rng() % 3;
  trace::Trace t;
  for (int i = 0; i < 1500; ++i) {
    const Word block = lows[rng() % lows.size()] | (rng() % tags) << n;
    t.append(block * 4, trace::AccessKind::read);
  }
  return t;
}

// Eq. 4 bounds exact misses: a profiled reference (reuse distance within
// the cache's capacity) that misses in a direct-mapped cache under H had
// an intervening block in its set, and Figure 1 counted that pair under
// a vector of N(H); every other miss is compulsory or capacity-filtered.
// So misses(H) <= compulsory + capacity-filtered + Eq. 4, for XOR,
// permutation and bit-select functions alike, and equality is reached.
TEST(Eq4Bound, BoundsExactDirectMappedMisses) {
  std::mt19937_64 rng(0xe4b0);
  std::uint64_t cases = 0;
  std::uint64_t tight = 0;
  for (int k = 0; k < 80; ++k) {
    const int n = 8 + k % 5;
    const trace::Trace t =
        k % 2 == 0 ? trace::random_trace(0, 64 + rng() % 512, 4, 1500, rng())
                   : above_hashed_bits_trace(n, rng);
    for (const std::uint32_t size : {256u, 1024u}) {
      const cache::CacheGeometry geom(size, 4);
      const int m = geom.index_bits();
      if (m >= n) continue;
      const profile::ConflictProfile p =
          profile::build_conflict_profile(t, geom, n);
      const auto check = [&](const hash::IndexFunction& f,
                             const Subspace& ns) {
        const std::uint64_t misses =
            cache::simulate_direct_mapped(t, geom, f).misses;
        const std::uint64_t bound = p.compulsory_refs +
                                    p.capacity_filtered_refs +
                                    p.estimate_misses(ns);
        EXPECT_LE(misses, bound) << "trace " << k << ", n = " << n << ", "
                                 << geom.to_string() << ", " << f.describe();
        ++cases;
        if (misses == bound) ++tight;
      };
      for (int trial = 0; trial < 8; ++trial) {
        const hash::XorFunction general(Matrix::random_full_rank(n, m, rng));
        check(general, general.null_space());
        const hash::PermutationFunction perm(n, m,
                                             Matrix::random(n - m, m, rng));
        check(perm, perm.null_space());
        std::vector<int> positions(static_cast<std::size_t>(n));
        std::iota(positions.begin(), positions.end(), 0);
        std::shuffle(positions.begin(), positions.end(), rng);
        positions.resize(static_cast<std::size_t>(m));
        const hash::BitSelectFunction select(n, positions);
        check(select, gf2::null_space(select.to_matrix()));
      }
    }
  }
  EXPECT_GT(cases, 3000u);
  EXPECT_GT(tight, 0u);
}

// ---------------------------------------------------------------------------
// Counting identities
// ---------------------------------------------------------------------------

TEST(CountingIdentities, GaussianSymmetry) {
  for (int n = 1; n <= 10; ++n)
    for (int m = 0; m <= n; ++m)
      EXPECT_EQ(gf2::gaussian_binomial_exact(n, m),
                gf2::gaussian_binomial_exact(n, n - m));
}

TEST(CountingIdentities, MatricesPerNullSpace) {
  // #full-rank matrices / #null spaces = #invertible m x m matrices:
  // functions sharing a null space differ by an output change of basis.
  for (int n = 2; n <= 8; ++n) {
    for (int m = 1; m <= n && m <= 4; ++m) {
      long double invertible = 1.0L;
      for (int i = 0; i < m; ++i)
        invertible *= std::exp2l(m) - std::exp2l(i);
      const long double ratio = gf2::count_full_rank_matrices(n, m) /
                                gf2::count_null_spaces(n, m);
      EXPECT_NEAR(static_cast<double>(ratio / invertible), 1.0, 1e-9)
          << n << "," << m;
    }
  }
}

}  // namespace
}  // namespace xoridx
