// Tests for the design-space search: estimators, the three hill climbers,
// the exhaustive optimal bit-select baseline and the optimizer facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/direct_mapped.hpp"
#include "cache/simulate.hpp"
#include "gf2/counting.hpp"
#include "gf2/enumerate.hpp"
#include "hash/function_properties.hpp"
#include "obs/metrics.hpp"
#include "profile/conflict_profile.hpp"
#include "search/bit_select_search.hpp"
#include "search/estimator.hpp"
#include "search/exhaustive_bit_select.hpp"
#include "search/optimizer.hpp"
#include "search/permutation_search.hpp"
#include "search/subspace_search.hpp"
#include "trace/generators.hpp"
#include "workloads/workload.hpp"

namespace xoridx::search {
namespace {

using cache::CacheGeometry;
using gf2::Word;
using trace::AccessKind;
using trace::Trace;

profile::ConflictProfile make_profile(const Trace& t,
                                      const CacheGeometry& geom, int n) {
  return profile::build_conflict_profile(t, geom, n);
}

TEST(Estimator, BasisSweepMatchesSubspace) {
  std::mt19937_64 rng(3);
  const Trace t = trace::random_trace(0, 300, 4, 5000, 11);
  const auto p = make_profile(t, CacheGeometry(1024, 4), 12);
  for (int trial = 0; trial < 20; ++trial) {
    const gf2::Subspace ns = gf2::random_subspace(12, 5, rng);
    EXPECT_EQ(estimate_misses_basis(p, ns.basis()), p.estimate_misses(ns));
  }
}

TEST(Estimator, SubmaskSweepMatchesUnitSpan) {
  const Trace t = trace::random_trace(0, 300, 4, 5000, 13);
  const auto p = make_profile(t, CacheGeometry(1024, 4), 12);
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Word unselected = rng() & gf2::mask_of(12);
    // Build the span of unit vectors at the unselected positions.
    std::vector<Word> units;
    for (int i = 0; i < 12; ++i)
      if (gf2::get_bit(unselected, i)) units.push_back(gf2::unit(i));
    const gf2::Subspace ns = gf2::Subspace::span_of(12, units);
    EXPECT_EQ(estimate_misses_submasks(p, unselected), p.estimate_misses(ns));
  }
}

// A trace whose conflicts a permutation XOR can fully remove: loop over
// blocks separated by exactly the cache size (stride 2^m blocks).
Trace power_stride_loop(int blocks, int reps, std::uint64_t stride_blocks) {
  Trace t;
  for (int rep = 0; rep < reps; ++rep)
    for (int i = 0; i < blocks; ++i)
      t.append(static_cast<std::uint64_t>(i) * stride_blocks * 4,
               AccessKind::read);
  return t;
}

TEST(PermutationSearch, EliminatesPowerOfTwoStrideConflicts) {
  const CacheGeometry geom(1024, 4);  // m = 8
  const Trace t = power_stride_loop(64, 10, 256);
  const auto p = make_profile(t, geom, 16);
  const PermutationSearchResult r = search_permutation(p, geom.index_bits());
  const cache::CacheStats base = cache::simulate_direct_mapped(
      t, geom, hash::XorFunction::conventional(16, 8));
  const cache::CacheStats opt =
      cache::simulate_direct_mapped(t, geom, r.function);
  EXPECT_EQ(base.misses, t.size());  // every access thrashes
  EXPECT_EQ(opt.misses, 64u);        // compulsory only
  EXPECT_LT(r.stats.best_estimate, r.stats.start_estimate);
}

TEST(PermutationSearch, RespectsFanInLimit) {
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0, 3000, 4, 30000, 5);
  const auto p = make_profile(t, geom, 16);
  for (int fan_in : {2, 4}) {
    SearchOptions opts;
    opts.max_fan_in = fan_in;
    const PermutationSearchResult r =
        search_permutation(p, geom.index_bits(), opts);
    EXPECT_LE(r.function.max_fan_in(), fan_in);
    EXPECT_LE(r.function.to_matrix().max_column_weight(), fan_in);
  }
}

TEST(PermutationSearch, UnlimitedNeverWorseThanLimitedEstimate) {
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0, 3000, 4, 30000, 6);
  const auto p = make_profile(t, geom, 16);
  SearchOptions limited;
  limited.max_fan_in = 2;
  const auto r2 = search_permutation(p, geom.index_bits(), limited);
  const auto r16 = search_permutation(p, geom.index_bits());
  EXPECT_LE(r16.stats.best_estimate, r2.stats.best_estimate);
}

TEST(PermutationSearch, MonotoneImprovementOverStart) {
  const CacheGeometry geom(4096, 4);
  const Trace t = trace::random_trace(0, 5000, 4, 40000, 7);
  const auto p = make_profile(t, geom, 16);
  const auto r = search_permutation(p, geom.index_bits());
  EXPECT_LE(r.stats.best_estimate, r.stats.start_estimate);
  EXPECT_GT(r.stats.evaluations, 0u);
}

TEST(PermutationSearch, ResultIsPermutationBased) {
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0, 2000, 4, 20000, 8);
  const auto p = make_profile(t, geom, 16);
  const auto r = search_permutation(p, geom.index_bits());
  EXPECT_TRUE(hash::is_permutation_based(r.function.to_matrix()));
}

TEST(BitSelectSearch, FindsDiscriminatingBits) {
  // Blocks differ only in bits 8..11 (above the 4-bit index of a 64 B
  // cache): selecting those bits removes all conflicts.
  const CacheGeometry geom(64, 4);  // 16 sets, m = 4
  Trace t;
  for (int rep = 0; rep < 20; ++rep)
    for (int i = 0; i < 8; ++i)
      t.append(static_cast<std::uint64_t>(i) << 10, AccessKind::read);
  const auto p = make_profile(t, geom, 16);
  const BitSelectSearchResult r = search_bit_select(p, geom.index_bits());
  const cache::CacheStats opt =
      cache::simulate_direct_mapped(t, geom, r.function);
  EXPECT_EQ(opt.misses, 8u);
  EXPECT_EQ(r.function.index_bits(), 4);
}

TEST(BitSelectSearch, ProducesValidSelection) {
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0, 2000, 4, 15000, 9);
  const auto p = make_profile(t, geom, 16);
  const auto r = search_bit_select(p, geom.index_bits());
  EXPECT_EQ(r.function.positions().size(), 8u);
  EXPECT_TRUE(hash::is_bit_selecting(r.function.to_matrix()));
}

TEST(SubspaceSearch, EliminatesPowerOfTwoStrideConflicts) {
  const CacheGeometry geom(1024, 4);
  const Trace t = power_stride_loop(64, 10, 256);
  const auto p = make_profile(t, geom, 16);
  const SubspaceSearchResult r = search_general_xor(p, geom.index_bits());
  const cache::CacheStats opt =
      cache::simulate_direct_mapped(t, geom, r.function);
  EXPECT_EQ(opt.misses, 64u);
}

TEST(SubspaceSearch, NeighborsExploredWithoutDuplicates) {
  // On a flat landscape (empty profile) the search stops after scanning
  // the full first neighborhood: (2^d - 1) * 2 * (2^m - 1) candidates.
  const profile::ConflictProfile empty(8, 64);  // n = 8
  SearchOptions opts;
  const SubspaceSearchResult r = search_general_xor(empty, 4, opts);
  const std::uint64_t expected =
      (15ull) * 2ull * (15ull) + 1;  // neighbors + the start evaluation
  EXPECT_EQ(r.stats.evaluations, expected);
  EXPECT_EQ(r.stats.iterations, 0);
}

TEST(SubspaceSearch, AtLeastAsStrongAsPermutationOnEstimate) {
  // Permutation-based null spaces are a subset of general ones, and both
  // searches start at the conventional function, so general XOR must
  // reach an estimate at least as small on the same profile.
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0, 2000, 4, 20000, 10);
  const auto p = make_profile(t, geom, 16);
  const auto perm = search_permutation(p, geom.index_bits());
  const auto gen = search_general_xor(p, geom.index_bits());
  // Not guaranteed in general (different neighborhood shapes), but holds
  // for the start estimate.
  EXPECT_EQ(perm.stats.start_estimate, gen.stats.start_estimate);
  EXPECT_LE(gen.stats.best_estimate, gen.stats.start_estimate);
}

TEST(SubspaceSearch, FunctionHasFullRankAndMatchingNullSpace) {
  const CacheGeometry geom(4096, 4);
  const Trace t = trace::random_trace(0, 1500, 4, 10000, 12);
  const auto p = make_profile(t, geom, 16);
  const auto r = search_general_xor(p, geom.index_bits());
  EXPECT_EQ(r.function.matrix().rank(), geom.index_bits());
  EXPECT_EQ(r.function.null_space(), r.null_space);
}

// ---------------------------------------------------------------------------
// Exhaustive (optimal) bit selection
// ---------------------------------------------------------------------------

TEST(OptimalBitSelect, BeatsOrTiesHeuristicExactMisses) {
  const CacheGeometry geom(256, 4);  // m = 6: C(12,6) = 924 candidates
  const Trace t = trace::random_trace(0, 800, 4, 8000, 15);
  const auto p = make_profile(t, geom, 12);
  const auto heuristic = search_bit_select(p, geom.index_bits());
  const auto optimal = optimal_bit_select(t, geom, 12);
  const auto heuristic_misses =
      cache::simulate_direct_mapped(t, geom, heuristic.function).misses;
  EXPECT_LE(optimal.misses, heuristic_misses);
  EXPECT_EQ(optimal.candidates, gf2::binomial_exact(12, 6));
}

TEST(OptimalBitSelect, ExactMissCountMatchesSimulator) {
  const CacheGeometry geom(256, 4);
  const Trace t = trace::random_trace(0, 500, 4, 6000, 16);
  const auto optimal = optimal_bit_select(t, geom, 12);
  const auto resim =
      cache::simulate_direct_mapped(t, geom, optimal.function).misses;
  EXPECT_EQ(optimal.misses, resim);
}

TEST(OptimalBitSelect, BruteForceAgreementTinyCase) {
  // n = 6, m = 3: check the winner against an explicit enumeration using
  // the generic simulator.
  const CacheGeometry geom(32, 4);  // 8 sets
  const Trace t = trace::random_trace(0, 60, 4, 2000, 17);
  const auto optimal = optimal_bit_select(t, geom, 6);
  std::uint64_t best = ~0ull;
  for (int a = 0; a < 6; ++a)
    for (int b = a + 1; b < 6; ++b)
      for (int c = b + 1; c < 6; ++c) {
        const hash::BitSelectFunction f(6, {a, b, c});
        best = std::min(best,
                        cache::simulate_direct_mapped(t, geom, f).misses);
      }
  EXPECT_EQ(optimal.misses, best);
}

TEST(OptimalBitSelect, EstimatedVariantReturnsValidFunction) {
  const CacheGeometry geom(256, 4);
  const Trace t = trace::random_trace(0, 500, 4, 6000, 18);
  const auto p = make_profile(t, geom, 12);
  const auto est = optimal_bit_select_estimated(t, geom, p);
  EXPECT_EQ(est.candidates, gf2::binomial_exact(12, 6));
  EXPECT_EQ(est.function.index_bits(), 6);
  // The estimator-guided optimum can lose to the exact one, never win.
  const auto exact = optimal_bit_select(t, geom, 12);
  EXPECT_GE(est.misses, exact.misses);
}

TEST(OptimalBitSelect, FirstTouchOfTheAllOnesBlockIsAMiss) {
  // 1-byte blocks make 2^64 - 1 a reachable block address; a sweep whose
  // lines started out holding it counted its first touch as a hit.
  Trace t;
  t.append(0xFFFF'FFFF'FFFF'FFFFull, AccessKind::read);
  t.append(0x0, AccessKind::read);
  const CacheGeometry geom(16, 1);
  const auto optimal = optimal_bit_select(t, geom, 8);
  EXPECT_EQ(optimal.misses, 2u);
  EXPECT_EQ(optimal.misses,
            cache::simulate_direct_mapped(t, geom, optimal.function).misses);
}

/// Test-local unbounded sweep: simulate every selection to the end of the
/// trace with a textbook tag store, keep the first strict minimum.
ExhaustiveBitSelectResult unbounded_sweep(const std::vector<std::uint64_t>& blocks,
                                          const CacheGeometry& geom, int n) {
  const int m = geom.index_bits();
  ExhaustiveBitSelectResult best{hash::BitSelectFunction::conventional(n, m),
                                 ~std::uint64_t{0}, 0};
  gf2::for_each_combination(n, m, [&](std::uint32_t mask) {
    std::vector<int> positions;
    for (int i = 0; i < n; ++i)
      if ((mask >> i) & 1u) positions.push_back(i);
    const hash::BitSelectFunction f(n, positions);
    std::vector<std::uint64_t> tags(std::size_t{1} << m);
    std::vector<bool> valid(tags.size(), false);
    std::uint64_t misses = 0;
    for (const std::uint64_t b : blocks) {
      const auto set = static_cast<std::size_t>(f.index(b));
      if (valid[set] && tags[set] == f.tag(b)) continue;
      valid[set] = true;
      tags[set] = f.tag(b);
      ++misses;
    }
    ++best.candidates;
    if (misses < best.misses) {
      best.misses = misses;
      best.function = f;
    }
  });
  return best;
}

/// The hashed bits below n that take one value over all of `blocks`.
std::uint32_t constant_bits(const std::vector<std::uint64_t>& blocks, int n) {
  std::uint32_t constant = 0;
  for (int bit = 0; bit < n; ++bit)
    if (std::all_of(blocks.begin(), blocks.end(), [&](std::uint64_t b) {
          return ((b ^ blocks.front()) >> bit & 1u) == 0;
        }))
      constant |= 1u << bit;
  return constant;
}

/// Classes of m-of-n selections that miss alike when the bits in
/// `constant` never vary: one per choice of varying bits and count k of
/// constant bits, Σ_{k ≤ min(m,|C|)} C(n−|C|, m−k).
std::uint64_t selection_classes(int n, int m, std::uint32_t constant) {
  const int c = std::popcount(constant);
  std::uint64_t classes = 0;
  for (int k = 0; k <= std::min(m, c); ++k)
    if (m - k <= n - c) classes += gf2::binomial_exact(n - c, m - k);
  return classes;
}

std::uint64_t simulate_passes_counter() {
  return obs::registry().snapshot().counter("simulate.passes");
}

/// The sweep must find `want`, the exact winner, with one simulated
/// candidate per constant-bit class.
void expect_same_sweep(const std::vector<std::uint64_t>& blocks,
                       const CacheGeometry& geom, int n,
                       const ExhaustiveBitSelectResult& want) {
  const std::uint64_t passes0 = simulate_passes_counter();
  const ExhaustiveBitSelectResult got =
      optimal_bit_select_blocks(blocks, geom, n);
  const std::uint64_t passes = simulate_passes_counter() - passes0;
  EXPECT_EQ(got.function.positions(), want.function.positions());
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.candidates, gf2::binomial_exact(n, geom.index_bits()));
  // One simulated candidate per constant-bit class.
  if (obs::compiled() && obs::metrics_enabled())
    EXPECT_EQ(passes, selection_classes(n, geom.index_bits(),
                                        constant_bits(blocks, n)));
}

void expect_same_sweep(const std::vector<std::uint64_t>& blocks,
                       const CacheGeometry& geom, int n) {
  expect_same_sweep(blocks, geom, n, unbounded_sweep(blocks, geom, n));
}

TEST(OptimalBitSelect, BoundedSweepMatchesUnboundedOnRandomTraces) {
  std::mt19937_64 rng(31);
  for (const int n : {6, 9, 12}) {
    for (const std::uint32_t sets : {4u, 16u}) {
      const CacheGeometry geom(sets * 4, 4);
      if (geom.index_bits() > n) continue;
      std::vector<std::uint64_t> blocks(1500);
      // Small footprints with bits above n, so candidates conflict.
      for (std::uint64_t& b : blocks)
        b = (rng() % 40) * (1 + rng() % 7) + ((rng() % 3) << n);
      SCOPED_TRACE("n=" + std::to_string(n) + " sets=" + std::to_string(sets));
      expect_same_sweep(blocks, geom, n);
    }
  }
}

TEST(OptimalBitSelect, ConflictFreeTraceKeepsTheConventionalSelection) {
  // Every block is touched once: every candidate misses on every access,
  // all tie, and the first in Gosper order (the low m bits) must win.
  std::vector<std::uint64_t> blocks;
  for (std::uint64_t b = 0; b < 200; ++b) blocks.push_back(b * 37);
  const CacheGeometry geom(64, 4);  // m = 4
  expect_same_sweep(blocks, geom, 10);
  const auto optimal = optimal_bit_select_blocks(blocks, geom, 10);
  EXPECT_EQ(optimal.function.positions(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(optimal.misses, blocks.size());
}

TEST(OptimalBitSelect, BestSelectionLastInGosperOrderIsFound) {
  // The 2^m blocks vary only in the top m of the n bits: only the last
  // selection in Gosper order maps them to distinct sets.
  const int n = 10;
  const CacheGeometry geom(32, 4);  // m = 3
  const int m = geom.index_bits();
  std::vector<std::uint64_t> blocks;
  for (int rep = 0; rep < 20; ++rep)
    for (std::uint64_t k = 0; k < (1u << m); ++k)
      blocks.push_back(k << (n - m));
  expect_same_sweep(blocks, geom, n);
  const auto optimal = optimal_bit_select_blocks(blocks, geom, n);
  EXPECT_EQ(optimal.function.positions(), (std::vector<int>{7, 8, 9}));
  EXPECT_EQ(optimal.misses, std::uint64_t{1} << m);
}

TEST(OptimalBitSelect, ConstantBitClassesMatchUnboundedSweep) {
  // Random traces with `forced` hashed bits pinned to 0 or to 1 and bits
  // above n varying: skipping all but the first selection of each class
  // must leave the winner and its misses as the unfiltered sweep finds.
  std::mt19937_64 rng(47);
  for (const int n : {8, 12}) {
    for (const std::uint32_t sets : {4u, 16u}) {
      const CacheGeometry geom(sets * 4, 4);
      const int m = geom.index_bits();
      for (const int forced : {0, 1, n - m, n - 1}) {
        for (const std::uint64_t value : {0u, 1u}) {
          std::vector<int> order(static_cast<std::size_t>(n));
          for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
          std::shuffle(order.begin(), order.end(), rng);
          std::uint64_t pinned = 0;
          for (int i = 0; i < forced; ++i)
            pinned |= std::uint64_t{1} << order[static_cast<std::size_t>(i)];
          std::vector<std::uint64_t> blocks(800);
          for (std::uint64_t& b : blocks) {
            b = (rng() % 48) * (1 + rng() % 5) + ((rng() % 3) << n);
            b = value != 0 ? (b | pinned) : (b & ~pinned);
          }
          SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m) +
                       " forced=" + std::to_string(forced) +
                       " value=" + std::to_string(value));
          EXPECT_EQ(constant_bits(blocks, n) & pinned, pinned);
          expect_same_sweep(blocks, geom, n);
        }
      }
    }
  }
}

TEST(OptimalBitSelect, TiedClassMembersKeepTheEarliestSelection) {
  // Only bits 3 and 7 vary, over four blocks in a loop. Every selection
  // of {3, 7} plus one constant bit gives each block its own set and
  // reaches the minimum of 4 misses; the earliest, {0, 3, 7}, must win.
  const int n = 10;
  const CacheGeometry geom(32, 4);  // m = 3
  const std::uint64_t base = 0b10'0011'0101;  // bits 3 and 7 clear
  std::vector<std::uint64_t> blocks;
  for (int rep = 0; rep < 25; ++rep)
    for (const std::uint64_t v : {0u, 1u, 2u, 3u})
      blocks.push_back(base | ((v & 1u) << 3) | ((v >> 1) << 7));
  expect_same_sweep(blocks, geom, n);
  const auto optimal = optimal_bit_select_blocks(blocks, geom, n);
  EXPECT_EQ(optimal.function.positions(), (std::vector<int>{0, 3, 7}));
  EXPECT_EQ(optimal.misses, 4u);
}

TEST(OptimalBitSelect, SingleBlockTraceHasOneClass) {
  // Every hashed bit is constant: one class, one simulated candidate.
  const CacheGeometry geom(64, 4);  // m = 4
  const std::vector<std::uint64_t> blocks(30, 0b1011'0110'1001ull);
  expect_same_sweep(blocks, geom, 12);
  EXPECT_EQ(selection_classes(12, 4, constant_bits(blocks, 12)), 1u);
  const auto optimal = optimal_bit_select_blocks(blocks, geom, 12);
  EXPECT_EQ(optimal.function.positions(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(optimal.misses, 1u);
}

TEST(OptimalBitSelect, SelectingEveryHashedBitHasOneCandidate) {
  std::mt19937_64 rng(5);
  const CacheGeometry geom(64, 4);  // m = n = 4
  std::vector<std::uint64_t> blocks(400);
  for (std::uint64_t& b : blocks) b = rng() % 64;
  expect_same_sweep(blocks, geom, 4);
}

TEST(OptimalBitSelect, BackToBackRepeatsDoNotChangeTheSweep) {
  // Runs of 1-4 repeats of each block: the trace entry point drops the
  // repeats and must still agree with the unfiltered sweep over every
  // raw block, while simulating no more than the runs.
  std::mt19937_64 rng(19);
  const CacheGeometry geom(64, 4);  // m = 4
  const int n = 10;
  std::vector<std::uint64_t> blocks;
  std::size_t runs = 0;
  while (blocks.size() < 2000) {
    const std::uint64_t b = rng() % 120 + ((rng() % 2) << n);
    if (!blocks.empty() && blocks.back() == b) continue;
    ++runs;
    for (std::uint64_t r = 1 + rng() % 4; r > 0; --r) blocks.push_back(b);
  }
  Trace t;
  for (const std::uint64_t b : blocks)
    t.append(b << geom.offset_bits(), AccessKind::read);

  const ExhaustiveBitSelectResult want = unbounded_sweep(blocks, geom, n);
  const auto counters = [] {
    const obs::Snapshot snap = obs::registry().snapshot();
    return std::pair{snap.counter("simulate.passes"),
                     snap.counter("simulate.accesses")};
  };
  const auto [passes0, accesses0] = counters();
  const ExhaustiveBitSelectResult got = optimal_bit_select(t, geom, n);
  const auto [passes1, accesses1] = counters();
  EXPECT_EQ(got.function.positions(), want.function.positions());
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.candidates, want.candidates);
  if (obs::compiled() && obs::metrics_enabled()) {
    EXPECT_GT(passes1 - passes0, 0u);
    EXPECT_LE(accesses1 - accesses0, (passes1 - passes0) * runs);
  }
}

/// The sweep without the rest-of-trace floor: the first member of each
/// constant-bit class in Gosper order, each stopped once its misses reach
/// the best so far. Returns the result and the accesses it simulated.
std::pair<ExhaustiveBitSelectResult, std::uint64_t> stop_at_best_sweep(
    const std::vector<std::uint64_t>& blocks, const CacheGeometry& geom,
    int n) {
  const int m = geom.index_bits();
  const std::uint32_t constant = constant_bits(blocks, n);
  ExhaustiveBitSelectResult best{hash::BitSelectFunction::conventional(n, m),
                                 ~std::uint64_t{0}, 0};
  std::uint64_t accesses = 0;
  gf2::for_each_combination(n, m, [&](std::uint32_t mask) {
    ++best.candidates;
    std::uint32_t lowest = 0;
    std::uint32_t rest = constant;
    for (int k = std::popcount(mask & constant); k > 0; --k) {
      lowest |= rest & (~rest + 1);
      rest &= rest - 1;
    }
    if ((mask & constant) != lowest) return;
    cache::DirectMappedCache dm(geom, hash::CompiledIndex::bit_select(n, mask));
    accesses += dm.run(blocks, best.misses);
    if (dm.stats().misses < best.misses) {
      best.misses = dm.stats().misses;
      std::vector<int> positions;
      for (int i = 0; i < n; ++i)
        if ((mask >> i) & 1u) positions.push_back(i);
      best.function = hash::BitSelectFunction(n, positions);
    }
  });
  return {best, accesses};
}

std::uint64_t simulate_accesses_counter() {
  return obs::registry().snapshot().counter("simulate.accesses");
}

/// A workload's block addresses with back-to-back repeats dropped, as the
/// trace entry point of the sweep extracts them.
std::vector<std::uint64_t> workload_blocks(std::string_view name,
                                           const CacheGeometry& geom) {
  const workloads::Workload w =
      workloads::make_workload(name, workloads::Scale::small);
  std::vector<std::uint64_t> blocks;
  for (const std::uint64_t addr : w.data.addresses()) {
    const std::uint64_t block = addr >> geom.offset_bits();
    if (blocks.empty() || blocks.back() != block) blocks.push_back(block);
  }
  return blocks;
}

TEST(OptimalBitSelect, RestOfTraceFloorKeepsTheSweepOnLongCapacityHeavyTraces) {
  // Half the blocks on a stride of 8, half random over six times the
  // line count, over several 1024-block chunks and on and either side of
  // a chunk boundary: even the best selection misses on most blocks, so
  // the floor of the rest stops candidates before the running best alone
  // would.
  std::mt19937_64 rng(53);
  for (const std::size_t length : {3071u, 3072u, 3073u, 5000u}) {
    for (const std::uint32_t sets : {8u, 32u}) {
      const int n = 10;
      const CacheGeometry geom(sets * 4, 4);
      std::vector<std::uint64_t> blocks;
      while (blocks.size() < length) {
        const std::uint64_t block =
            rng() % 2 != 0 ? (rng() % (2 * sets)) << 3 : rng() % (6 * sets);
        if (blocks.empty() || blocks.back() != block) blocks.push_back(block);
      }
      SCOPED_TRACE("length=" + std::to_string(length) +
                   " sets=" + std::to_string(sets));
      const std::uint64_t accesses0 = simulate_accesses_counter();
      expect_same_sweep(blocks, geom, n);
      const std::uint64_t accesses = simulate_accesses_counter() - accesses0;
      if (obs::compiled() && obs::metrics_enabled())
        EXPECT_LT(accesses, stop_at_best_sweep(blocks, geom, n).second);
    }
  }
}

TEST(OptimalBitSelect, RestOfTraceFloorKeepsTheSweepOnWorkloads) {
  // 16 hashed bits, as the evaluation runs them. Simulating every
  // candidate to the end takes seconds here, so the reference is the
  // sweep stopped at the running best alone, which the random traces
  // above hold to the unbounded sweep.
  for (const char* name : {"rijndael", "adpcm_enc", "dijkstra"}) {
    for (const std::uint32_t size : {1024u, 4096u}) {
      const CacheGeometry geom(size, 4);
      SCOPED_TRACE(std::string(name) + " @" + std::to_string(size));
      const std::vector<std::uint64_t> blocks = workload_blocks(name, geom);
      expect_same_sweep(blocks, geom, 16,
                        stop_at_best_sweep(blocks, geom, 16).first);
    }
  }
}

TEST(OptimalBitSelect, RestOfTraceFloorPrunesMostOfLame) {
  // lame @1 KB: the best selection still misses on most blocks, so the
  // running best alone stops candidates late. The floor must save at
  // least 40% of the simulated accesses and keep the winner.
  if (!obs::compiled() || !obs::metrics_enabled())
    GTEST_SKIP() << "needs the simulate.accesses counter";
  const CacheGeometry geom(1024, 4);
  const std::vector<std::uint64_t> blocks = workload_blocks("lame", geom);
  const auto [want, stop_at_best_accesses] =
      stop_at_best_sweep(blocks, geom, 16);
  const std::uint64_t passes0 = simulate_passes_counter();
  const std::uint64_t accesses0 = simulate_accesses_counter();
  const ExhaustiveBitSelectResult got =
      optimal_bit_select_blocks(blocks, geom, 16);
  const std::uint64_t accesses = simulate_accesses_counter() - accesses0;
  EXPECT_EQ(got.function.positions(), want.function.positions());
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(
      simulate_passes_counter() - passes0,
      selection_classes(16, geom.index_bits(), constant_bits(blocks, 16)));
  EXPECT_LE(accesses * 10, stop_at_best_accesses * 6)
      << accesses << " of " << stop_at_best_accesses;
}

// ---------------------------------------------------------------------------
// Optimizer facade
// ---------------------------------------------------------------------------

TEST(Optimizer, EndToEndStrideElimination) {
  const CacheGeometry geom(1024, 4);
  const Trace t = power_stride_loop(64, 10, 256);
  OptimizeOptions opts;
  opts.search.function_class = FunctionClass::permutation;
  const OptimizationResult r = optimize_index(t, geom, opts);
  EXPECT_EQ(r.baseline_misses, t.size());
  EXPECT_EQ(r.optimized_misses, 64u);
  EXPECT_NEAR(r.reduction_percent(), 90.0, 1.0);  // 640 -> 64
  EXPECT_FALSE(r.reverted);
}

TEST(Optimizer, AllClassesProduceFunctions) {
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0, 1000, 4, 10000, 19);
  for (const FunctionClass fc :
       {FunctionClass::bit_select, FunctionClass::permutation,
        FunctionClass::general_xor}) {
    OptimizeOptions opts;
    opts.search.function_class = fc;
    const OptimizationResult r = optimize_index(t, geom, opts);
    ASSERT_NE(r.function, nullptr);
    EXPECT_EQ(r.function->index_bits(), geom.index_bits());
    EXPECT_EQ(r.accesses, t.size());
  }
}

TEST(Optimizer, RevertGuardNeverLosesToBaseline) {
  // Adversarial traces where the heuristic may regress: with the guard
  // enabled the result never exceeds baseline misses.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const CacheGeometry geom(1024, 4);
    const Trace t = trace::random_trace(0, 260, 4, 8000, 1000 + seed);
    OptimizeOptions opts;
    opts.revert_if_worse = true;
    const OptimizationResult r = optimize_index(t, geom, opts);
    EXPECT_LE(r.optimized_misses, r.baseline_misses) << "seed=" << seed;
  }
}

TEST(Optimizer, ReusesExternalProfile) {
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0, 1000, 4, 10000, 23);
  const auto p = make_profile(t, geom, 16);
  OptimizeOptions opts;
  const OptimizationResult a = optimize_index_with_profile(t, geom, p, opts);
  const OptimizationResult b = optimize_index(t, geom, opts);
  EXPECT_EQ(a.optimized_misses, b.optimized_misses);
  EXPECT_EQ(a.estimated_misses, b.estimated_misses);
}

TEST(Optimizer, RandomRestartsNeverHurtEstimate) {
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0, 2000, 4, 20000, 29);
  OptimizeOptions plain;
  const auto base = optimize_index(t, geom, plain);
  OptimizeOptions restarts;
  restarts.search.random_restarts = 3;
  const auto multi = optimize_index(t, geom, restarts);
  EXPECT_LE(multi.estimated_misses, base.estimated_misses);
}

TEST(Optimizer, MismatchedProfileRejected) {
  const CacheGeometry geom(1024, 4);
  const Trace t = trace::random_trace(0, 100, 4, 500, 31);
  const auto p = make_profile(t, geom, 12);
  OptimizeOptions opts;  // hashed_bits defaults to 16 != 12
  EXPECT_THROW(optimize_index_with_profile(t, geom, p, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace xoridx::search
