// Tests for the Figure-1 conflict profiler — hand-traced examples of the
// paper's algorithm, a differential oracle, its accounting identities and
// its streaming memory bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "cache/fully_associative.hpp"
#include "cache/simulate.hpp"
#include "hash/xor_function.hpp"
#include "heap_counter.hpp"
#include "profile/conflict_profile.hpp"
#include "trace/generators.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::profile {
namespace {

using trace::AccessKind;
using trace::Trace;

Trace block_sequence(std::initializer_list<std::uint64_t> blocks) {
  Trace t;
  for (std::uint64_t b : blocks) t.append(b * 4, AccessKind::read);
  return t;
}

// ---------------------------------------------------------------------------
// Figure 1 semantics, hand-traced.
// ---------------------------------------------------------------------------

TEST(ConflictProfile, HandTracedExample) {
  // Trace of blocks: A=0, B=3, A, C=5, A.
  //  - A: compulsory.
  //  - B: compulsory.
  //  - A: B above -> misses(A^B=3) += 1.
  //  - C: compulsory.
  //  - A: C above -> misses(A^C=5) += 1.
  const Trace t = block_sequence({0, 3, 0, 5, 0});
  const cache::CacheGeometry geom(1024, 4);
  const ConflictProfile p = build_conflict_profile(t, geom, 8);
  EXPECT_EQ(p.references, 5u);
  EXPECT_EQ(p.compulsory_refs, 3u);
  EXPECT_EQ(p.profiled_refs, 2u);
  EXPECT_EQ(p.misses(3), 1u);
  EXPECT_EQ(p.misses(5), 1u);
  EXPECT_EQ(p.pair_count, 2u);
  EXPECT_EQ(p.total_mass(), 2u);
  EXPECT_EQ(p.distinct_vectors(), 2u);
}

TEST(ConflictProfile, CountsEveryIntermediateBlock) {
  // A, B, C, D, A: all of B, C, D contribute a vector.
  const Trace t = block_sequence({0, 1, 2, 3, 0});
  const ConflictProfile p =
      build_conflict_profile(t, cache::CacheGeometry(1024, 4), 8);
  EXPECT_EQ(p.misses(1), 1u);
  EXPECT_EQ(p.misses(2), 1u);
  EXPECT_EQ(p.misses(3), 1u);
}

TEST(ConflictProfile, RepeatedPatternAccumulates) {
  // (A B A B ...): after warmup each access sees the other block above.
  Trace t;
  for (int i = 0; i < 10; ++i) {
    t.append(0, AccessKind::read);
    t.append(7 * 4, AccessKind::read);
  }
  const ConflictProfile p =
      build_conflict_profile(t, cache::CacheGeometry(1024, 4), 8);
  EXPECT_EQ(p.misses(7), 18u);  // 20 refs - 2 compulsory
}

TEST(ConflictProfile, CapacityFilteredReferences) {
  // Working set of 2x cache blocks, cyclic: every non-first reference has
  // reuse distance 511 > 256 and is filtered.
  const cache::CacheGeometry geom(1024, 4);  // 256 blocks
  Trace t;
  for (int rep = 0; rep < 3; ++rep)
    for (std::uint64_t b = 0; b < 512; ++b)
      t.append(b * 4, AccessKind::read);
  const ConflictProfile p = build_conflict_profile(t, geom, 16);
  EXPECT_EQ(p.compulsory_refs, 512u);
  EXPECT_EQ(p.capacity_filtered_refs, 2u * 512u);
  EXPECT_EQ(p.profiled_refs, 0u);
  EXPECT_EQ(p.total_mass(), 0u);
}

TEST(ConflictProfile, TruncatesToHashedBits) {
  // Blocks 0 and 2^10 differ only above 8 bits: vector truncates to 0.
  const Trace t = block_sequence({0, 1024, 0});
  const ConflictProfile p =
      build_conflict_profile(t, cache::CacheGeometry(1024, 4), 8);
  EXPECT_EQ(p.misses(0), 1u);
}

TEST(ConflictProfile, EstimateEqualsBruteForceSum) {
  // Eq. 4 via Gray enumeration == direct sum over members.
  std::mt19937_64 rng(5);
  const Trace t = trace::random_trace(0, 200, 4, 4000, 21);
  const ConflictProfile p =
      build_conflict_profile(t, cache::CacheGeometry(1024, 4), 10);
  for (int trial = 0; trial < 20; ++trial) {
    const gf2::Subspace ns = gf2::random_subspace(10, 4, rng);
    std::uint64_t brute = 0;
    for (gf2::Word v : ns.members()) brute += p.misses(v);
    EXPECT_EQ(p.estimate_misses(ns), brute);
  }
}

TEST(ConflictProfile, EstimateExactForIsolatedConflicts) {
  // When each reference has at most one conflicting partner, Eq. 4 is an
  // exact conflict-miss count. Pattern: (A B A B ...) where A, B share a
  // set under modulo indexing.
  const cache::CacheGeometry geom(1024, 4);
  Trace t;
  for (int i = 0; i < 50; ++i) {
    t.append(0, AccessKind::read);
    t.append(256 * 4, AccessKind::read);  // same set, vector = 0x100
  }
  const ConflictProfile p = build_conflict_profile(t, geom, 16);
  const hash::XorFunction conv = hash::XorFunction::conventional(16, 8);
  const std::uint64_t estimated = p.estimate_misses(conv.null_space());
  const cache::CacheStats exact = cache::simulate_direct_mapped(t, geom, conv);
  EXPECT_EQ(estimated, exact.misses - 2);  // exact minus compulsory
}

TEST(ConflictProfile, EstimateOvercountsMultiwayConflicts) {
  // Three blocks in one set: an access may be preceded by two conflicting
  // blocks but incurs only one miss — Eq. 4 overcounts (the inexactness
  // the paper proves unavoidable in Section 3.3).
  const cache::CacheGeometry geom(1024, 4);
  Trace t;
  for (int i = 0; i < 30; ++i) {
    t.append(0, AccessKind::read);
    t.append(256 * 4, AccessKind::read);
    t.append(512 * 4, AccessKind::read);
  }
  const ConflictProfile p = build_conflict_profile(t, geom, 16);
  const hash::XorFunction conv = hash::XorFunction::conventional(16, 8);
  const std::uint64_t estimated = p.estimate_misses(conv.null_space());
  const cache::CacheStats exact = cache::simulate_direct_mapped(t, geom, conv);
  EXPECT_GT(estimated, exact.misses);
}

TEST(ConflictProfile, RejectsBadWidths) {
  EXPECT_THROW(ConflictProfile(0, 256), std::invalid_argument);
  EXPECT_THROW(ConflictProfile(30, 256), std::invalid_argument);
  const ConflictProfile p(8, 256);
  EXPECT_THROW((void)p.estimate_misses(gf2::Subspace(12)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Differential oracle and accounting identities
// ---------------------------------------------------------------------------

// Figure 1 written out literally: the whole LRU stack (most recent first),
// searched linearly. Quadratic, and plainly right.
ConflictProfile naive_profile(const Trace& t, const cache::CacheGeometry& geom,
                              int hashed_bits) {
  ConflictProfile p(hashed_bits, geom.num_blocks());
  const gf2::Word mask = gf2::mask_of(hashed_bits);
  std::vector<std::uint64_t> stack;
  for (const trace::Access& a : t) {
    const std::uint64_t block = a.addr >> geom.offset_bits();
    ++p.references;
    const auto it = std::find(stack.begin(), stack.end(), block);
    if (it == stack.end()) {
      ++p.compulsory_refs;
    } else {
      if (it - stack.begin() > std::ptrdiff_t{geom.num_blocks()}) {
        ++p.capacity_filtered_refs;
      } else {
        ++p.profiled_refs;
        for (auto above = stack.begin(); above != it; ++above) {
          p.add((block ^ *above) & mask);
          ++p.pair_count;
        }
      }
      stack.erase(it);
    }
    stack.insert(stack.begin(), block);
  }
  return p;
}

// Geometries whose window is far smaller than, close to, and larger than
// the random traces' 600-block footprint.
const cache::CacheGeometry kDifferentialGeometries[] = {
    {256, 4}, {1024, 4}, {1024, 16}, {4096, 4}};

class ProfilerDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProfilerDifferential, MatchesNaiveImplementation) {
  const Trace t = trace::random_trace(0, 600, 4, 6000, GetParam());
  for (const cache::CacheGeometry& geom : kDifferentialGeometries) {
    const ConflictProfile fast = build_conflict_profile(t, geom, 12);
    EXPECT_TRUE(fast == naive_profile(t, geom, 12)) << geom.to_string();
  }
}

TEST_P(ProfilerDifferential, AccountingIdentities) {
  const Trace t = trace::random_trace(0, 600, 4, 6000, GetParam());
  for (const cache::CacheGeometry& geom : kDifferentialGeometries) {
    const ConflictProfile p = build_conflict_profile(t, geom, 12);
    EXPECT_EQ(p.references, t.size());
    EXPECT_EQ(p.references,
              p.compulsory_refs + p.capacity_filtered_refs + p.profiled_refs);
    EXPECT_EQ(p.misses(0) + p.total_mass(), p.pair_count);
    // Reuse distance <= L is a hit in an LRU cache of L + 1 blocks (one
    // more than Figure 1's "exceeds the cache size" suggests).
    cache::FullyAssociativeCache fa(geom.num_blocks() + 1);
    for (const trace::Access& a : t) fa.access(a.addr >> geom.offset_bits());
    EXPECT_EQ(p.profiled_refs, fa.stats().hits()) << geom.to_string();
    EXPECT_EQ(p.compulsory_refs + p.capacity_filtered_refs,
              fa.stats().misses)
        << geom.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfilerDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Streaming memory bound
// ---------------------------------------------------------------------------

// `count` pseudo-random block references over `footprint` blocks, made on
// the fly so the trace itself is never resident.
class SyntheticStream final : public tracestore::TraceSource {
 public:
  SyntheticStream(std::uint64_t count, std::uint64_t footprint)
      : count_(count), footprint_(footprint) {}

  std::size_t next_batch(std::span<trace::Access> out) override {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(out.size(), left_));
    for (std::size_t i = 0; i < n; ++i) {
      state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
      out[i] = {((state_ >> 33) % footprint_) * 4, AccessKind::read};
    }
    left_ -= n;
    return n;
  }
  void reset() override {
    left_ = count_;
    state_ = 0;
  }
  [[nodiscard]] std::uint64_t size() const override { return count_; }

 private:
  std::uint64_t count_;
  std::uint64_t footprint_;
  std::uint64_t left_ = 0;
  std::uint64_t state_ = 0;
};

TEST(ConflictProfileMemory, StreamedStateIsIndependentOfTraceLength) {
  const cache::CacheGeometry geom(1024, 4);
  const auto peak_build_bytes = [&](std::uint64_t count) {
    SyntheticStream stream(count, 4096);
    const std::size_t before = heap::reset_peak();
    const ConflictProfile p = build_conflict_profile(stream, geom, 12);
    EXPECT_EQ(p.references, count);
    return heap::peak() - before;
  };
#ifdef NDEBUG
  constexpr std::uint64_t kLong = 100'000'000;
#else
  constexpr std::uint64_t kLong = 10'000'000;  // unoptimized: ~50x slower
#endif
  const std::size_t short_run = peak_build_bytes(1'000'000);
  const std::size_t long_run = peak_build_bytes(kLong);
  EXPECT_LE(long_run, short_run);
  // Window, flags for 4096 blocks, the 2^12 table and one decode batch;
  // 8 bytes per reference would be 800 MB at 10^8 references.
  EXPECT_LT(long_run, std::size_t{1} << 20);
}

TEST(ClassifyMissesMemory, InMemoryReservationIsCapped) {
  // 2^23 references over 1,024 blocks: the first-touch set only ever
  // holds 1,024 blocks, so its upfront reservation must not scale with
  // the trace length (one bucket per reference would be ~67 MiB here).
  constexpr std::uint64_t kCount = std::uint64_t{1} << 23;
  SyntheticStream stream(kCount, 1024);
  stream.reset();
  const Trace t = tracestore::drain_to_trace(stream);
  const cache::CacheGeometry geom(1024, 4);
  const hash::XorFunction conventional =
      hash::XorFunction::conventional(12, geom.index_bits());
  const std::size_t before = heap::reset_peak();
  const cache::MissBreakdown b = cache::classify_misses(t, geom, conventional);
  const std::size_t used = heap::peak() - before;
  EXPECT_EQ(b.accesses, kCount);
  EXPECT_EQ(b.compulsory, 1024u);
  EXPECT_LT(used, std::size_t{48} << 20);
}

}  // namespace
}  // namespace xoridx::profile
