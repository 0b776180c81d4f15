// Robustness and failure-injection tests: malformed inputs, boundary
// dimensions, degenerate traces, and the victim-cache model.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include "cache/direct_mapped.hpp"
#include "cache/simulate.hpp"
#include "cache/victim.hpp"
#include "gf2/matrix.hpp"
#include "gf2/subspace.hpp"
#include "hash/serialize.hpp"
#include "hash/xor_function.hpp"
#include "profile/conflict_profile.hpp"
#include "search/optimizer.hpp"
#include "tracestore/store.hpp"

namespace xoridx {
namespace {

using gf2::Matrix;
using gf2::Subspace;
using gf2::Word;

// ---------------------------------------------------------------------------
// Boundary dimensions
// ---------------------------------------------------------------------------

TEST(Boundaries, SixtyFourBitVectors) {
  EXPECT_EQ(gf2::mask_of(64), ~Word{0});
  EXPECT_EQ(gf2::leading_bit(Word{1} << 63), 63);
  Subspace s(64);
  EXPECT_TRUE(s.insert(Word{1} << 63));
  EXPECT_TRUE(s.contains(Word{1} << 63));
  EXPECT_EQ(s.dim(), 1);
}

TEST(Boundaries, FullWidthMatrix) {
  const Matrix id = Matrix::identity(32);
  EXPECT_EQ(id.rank(), 32);
  EXPECT_EQ(gf2::null_space(id).dim(), 0);
  const hash::XorFunction f{id};
  EXPECT_EQ(f.index(0xdeadbeefu), 0xdeadbeefu);
}

TEST(Boundaries, MEqualsNFunctionIsBijective) {
  std::mt19937_64 rng(3);
  Matrix h = Matrix::random(8, 8, rng);
  while (h.rank() != 8) h = Matrix::random(8, 8, rng);
  const hash::XorFunction f{h};
  std::set<Word> images;
  for (Word x = 0; x < 256; ++x) images.insert(f.index(x));
  EXPECT_EQ(images.size(), 256u);
}

TEST(Boundaries, OneBitIndex) {
  const hash::XorFunction f = hash::XorFunction::conventional(8, 1);
  cache::DirectMappedCache cache(cache::CacheGeometry(8, 4), f);
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(1));
  EXPECT_TRUE(cache.access(0));
}

TEST(Boundaries, SubspaceOfFullDimension) {
  std::mt19937_64 rng(5);
  const Subspace all = gf2::random_subspace(6, 6, rng);
  EXPECT_EQ(all.dim(), 6);
  for (Word v = 0; v < 64; ++v) EXPECT_TRUE(all.contains(v));
  EXPECT_TRUE(all.complement_basis().empty());
  const Matrix h = gf2::matrix_from_null_space(all);
  EXPECT_EQ(h.cols(), 0);
}

// ---------------------------------------------------------------------------
// Degenerate traces
// ---------------------------------------------------------------------------

TEST(Degenerate, EmptyTrace) {
  const trace::Trace empty;
  const cache::CacheGeometry geom(1024, 4);
  const profile::ConflictProfile p =
      profile::build_conflict_profile(empty, geom, 12);
  EXPECT_EQ(p.references, 0u);
  EXPECT_EQ(p.total_mass(), 0u);

  search::OptimizeOptions options;
  const search::OptimizationResult r =
      search::optimize_index(empty, geom, options);
  EXPECT_EQ(r.baseline_misses, 0u);
  EXPECT_EQ(r.optimized_misses, 0u);
  EXPECT_EQ(r.reduction_percent(), 0.0);
}

TEST(Degenerate, SingleBlockTrace) {
  trace::Trace t;
  for (int i = 0; i < 100; ++i) t.append(0x40, trace::AccessKind::read);
  const cache::CacheGeometry geom(1024, 4);
  const profile::ConflictProfile p = profile::build_conflict_profile(t, geom, 12);
  EXPECT_EQ(p.compulsory_refs, 1u);
  EXPECT_EQ(p.profiled_refs, 99u);
  EXPECT_EQ(p.total_mass(), 0u);  // nothing above it on the stack, ever
  const auto stats = cache::simulate_direct_mapped(
      t, geom, hash::XorFunction::conventional(16, 8));
  EXPECT_EQ(stats.misses, 1u);
}

TEST(Degenerate, AllWritesTrace) {
  trace::Trace t;
  for (std::uint64_t i = 0; i < 64; ++i)
    t.append(i * 4, trace::AccessKind::write);
  const auto stats = cache::simulate_direct_mapped(
      t, cache::CacheGeometry(1024, 4),
      hash::XorFunction::conventional(16, 8));
  EXPECT_EQ(stats.misses, 64u);  // write-allocate: all compulsory
}

TEST(Degenerate, AddressesAboveHashedBits) {
  // Blocks identical in the low 16 bits but distinct above always
  // conflict under any n = 16 hash; the profiler folds them onto v = 0
  // and the simulator must still distinguish them by tag.
  trace::Trace t;
  for (int rep = 0; rep < 5; ++rep) {
    t.append(0x0000000, trace::AccessKind::read);
    t.append(0x1000000, trace::AccessKind::read);  // +2^24
  }
  const cache::CacheGeometry geom(1024, 4);
  const profile::ConflictProfile p = profile::build_conflict_profile(t, geom, 16);
  EXPECT_EQ(p.misses(0), 8u);
  const auto stats = cache::simulate_direct_mapped(
      t, geom, hash::XorFunction::conventional(16, 8));
  EXPECT_EQ(stats.misses, 10u);  // unfixable ping-pong
}

// ---------------------------------------------------------------------------
// Malformed serialized inputs
// ---------------------------------------------------------------------------

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Write `bytes` to a scratch file and return its path.
std::string write_temp(const std::string& name, const std::string& bytes) {
  const std::string path = temp_path(name);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
  return path;
}

TEST(MalformedInput, TraceFileGarbage) {
  for (const char* payload :
       {"", "XORIDXT1", "XORIDXT2AAAAAAAA", "short"}) {
    const std::string path = write_temp("xoridx_garbage.bin", payload);
    EXPECT_THROW((void)tracestore::load_trace_any(path), std::runtime_error)
        << payload;
    std::remove(path.c_str());
  }
}

TEST(MalformedInput, TraceBadKindByte) {
  trace::Trace t;
  t.append(4, trace::AccessKind::read);
  const std::string path = temp_path("xoridx_bad_kind.bin");
  tracestore::save_trace_v1(path, t);
  {
    // Corrupt the kind byte, the file's last.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(16 + 8);
    f.put(9);
  }
  EXPECT_THROW((void)tracestore::load_trace_any(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(MalformedInput, FunctionTextVariants) {
  const char* cases[] = {
      "xoridx-function v2\nkind xor\nn 4\nm 2\nend\n",   // bad version
      "xoridx-function v1\nkind xor\nn 0\nm 0\nend\n",   // zero dims
      "xoridx-function v1\nkind xor\nn 4\nm 6\nend\n",   // m > n
      "xoridx-function v1\nkind bitselect\nn 8\nm 3\npositions 1 2\nend\n",
      "xoridx-function v1\nkind xor\nn 4\nm 2\nrow zz\nrow 0x1\nrow 0x2\n"
      "row 0x0\nend\n",
  };
  for (const char* text : cases)
    EXPECT_THROW((void)hash::from_text(text), std::runtime_error) << text;
}

TEST(MalformedInput, RankDeficientSerializedMatrixRejected) {
  // Structurally valid text whose matrix cannot index a cache.
  const char* text =
      "xoridx-function v1\nkind xor\nn 4\nm 2\nrow 0x1\nrow 0x1\nrow 0x0\n"
      "row 0x0\nend\n";
  EXPECT_THROW((void)hash::from_text(text), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Victim cache
// ---------------------------------------------------------------------------

TEST(Victim, CatchesPingPongConflicts) {
  const hash::XorFunction f = hash::XorFunction::conventional(16, 8);
  const cache::CacheGeometry geom(1024, 4);
  cache::VictimCache cache(geom, f, 4);
  // Two blocks in the same set alternate: after the cold start, every
  // access hits the victim buffer via swaps.
  cache.access(0);
  cache.access(256);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(cache.access(0));
    EXPECT_TRUE(cache.access(256));
  }
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_GT(cache.victim_hits(), 0u);
}

TEST(Victim, BufferCapacityLimitsCoverage) {
  const hash::XorFunction f = hash::XorFunction::conventional(16, 8);
  const cache::CacheGeometry geom(1024, 4);
  cache::VictimCache small_buffer(geom, f, 1);
  // Three-way set ping-pong overwhelms a 1-line buffer.
  std::uint64_t blocks[3] = {0, 256, 512};
  for (int round = 0; round < 30; ++round)
    for (std::uint64_t b : blocks) small_buffer.access(b);
  EXPECT_GT(small_buffer.stats().misses, 30u);

  cache::VictimCache big_buffer(geom, f, 4);
  for (int round = 0; round < 30; ++round)
    for (std::uint64_t b : blocks) big_buffer.access(b);
  EXPECT_EQ(big_buffer.stats().misses, 3u);
}

TEST(Victim, NeverWorseThanPlainDirectMapped) {
  const hash::XorFunction f = hash::XorFunction::conventional(16, 8);
  const cache::CacheGeometry geom(1024, 4);
  std::mt19937_64 rng(17);
  trace::Trace t;
  for (int i = 0; i < 20000; ++i)
    t.append((rng() % 2000) * 4, trace::AccessKind::read);
  cache::VictimCache with_victim(geom, f, 8);
  cache::DirectMappedCache plain(geom, f);
  for (const trace::Access& a : t) {
    with_victim.access(a.addr >> 2);
    plain.access(a.addr >> 2);
  }
  EXPECT_LE(with_victim.stats().misses, plain.stats().misses);
}

TEST(Victim, RejectsBadConfigurations) {
  const hash::XorFunction f = hash::XorFunction::conventional(16, 8);
  EXPECT_THROW(cache::VictimCache(cache::CacheGeometry(1024, 4), f, 0),
               std::invalid_argument);
  EXPECT_THROW(cache::VictimCache(cache::CacheGeometry(4096, 4), f, 4),
               std::invalid_argument);
}

TEST(Victim, FlushClearsBothStructures) {
  const hash::XorFunction f = hash::XorFunction::conventional(16, 8);
  cache::VictimCache cache(cache::CacheGeometry(1024, 4), f, 4);
  cache.access(0);
  cache.access(256);  // 0 moves to the victim buffer
  cache.flush();
  EXPECT_FALSE(cache.access(0));
  EXPECT_FALSE(cache.access(256));
}

}  // namespace
}  // namespace xoridx
