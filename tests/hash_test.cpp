// Tests for index-function classes, the Eq.-5 permutation property, tag
// soundness, the compiled (byte-sliced) index form and the Table-1
// hardware cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "hash/bit_select_function.hpp"
#include "hash/compiled_index.hpp"
#include "hash/function_properties.hpp"
#include "hash/hardware_cost.hpp"
#include "hash/permutation_function.hpp"
#include "hash/xor_function.hpp"

namespace xoridx::hash {
namespace {

using gf2::Matrix;
using gf2::Subspace;
using gf2::Word;

TEST(XorFunction, ConventionalSelectsLowBits) {
  const XorFunction f = XorFunction::conventional(16, 8);
  EXPECT_EQ(f.index(0x1234), 0x34u);
  EXPECT_EQ(f.index(0xabcd), 0xcdu);
}

TEST(XorFunction, ConventionalTagIsHighBits) {
  const XorFunction f = XorFunction::conventional(16, 8);
  // Tag: hashed bits 8..15 plus everything above bit 16.
  EXPECT_EQ(f.tag(0x1234), 0x12u);
  EXPECT_EQ(f.tag(0xf'1234), (0xf'12u));
}

TEST(XorFunction, RejectsRankDeficientMatrix) {
  Matrix h(4, 2);
  h.set_row(0, 0b11);
  h.set_row(1, 0b11);
  EXPECT_THROW(XorFunction{h}, std::invalid_argument);
}

TEST(XorFunction, IndexMatchesMatrixApply) {
  std::mt19937_64 rng(3);
  const Matrix h = Matrix::random_full_rank(10, 6, rng);
  const XorFunction f{h};
  for (Word x = 0; x < 1024; ++x) EXPECT_EQ(f.index(x), h.apply(x));
}

TEST(XorFunction, TagIndexInjectiveExhaustive) {
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix h = Matrix::random_full_rank(10, 6, rng);
    const XorFunction f{h};
    std::set<std::pair<Word, Word>> seen;
    for (Word x = 0; x < 1024; ++x)
      EXPECT_TRUE(seen.insert({f.index(x), f.tag(x)}).second)
          << "collision at x=" << x;
  }
}

TEST(XorFunction, TagIndexBijectiveAlgebraic) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix h = Matrix::random_full_rank(12, 7, rng);
    const XorFunction f{h};
    EXPECT_TRUE(tag_index_bijective(f));
  }
}

TEST(XorFunction, FromNullSpaceRoundTrip) {
  std::mt19937_64 rng(11);
  const Subspace ns = gf2::random_subspace(12, 5, rng);
  const XorFunction f = XorFunction::from_null_space(ns);
  EXPECT_EQ(f.null_space(), ns);
  EXPECT_EQ(f.index_bits(), 7);
}

TEST(XorFunction, DescribeMentionsEveryTap) {
  Matrix h(3, 2);
  h.set_row(0, 0b01);
  h.set_row(2, 0b01);
  h.set_row(1, 0b10);
  const XorFunction f{h};
  const std::string d = f.describe();
  EXPECT_NE(d.find("a0 ^ a2"), std::string::npos);
  EXPECT_NE(d.find("set[1] = a1"), std::string::npos);
}

TEST(BitSelect, IndexGathersBits) {
  const BitSelectFunction f(16, {0, 3, 5});
  EXPECT_EQ(f.index(0b101001), 0b111u);
  EXPECT_EQ(f.index(0b001000), 0b010u);
}

TEST(BitSelect, RejectsBadPositions) {
  EXPECT_THROW(BitSelectFunction(8, {0, 8}), std::invalid_argument);
  EXPECT_THROW(BitSelectFunction(8, {3, 3}), std::invalid_argument);
}

TEST(BitSelect, TagIndexInjectiveExhaustive) {
  const BitSelectFunction f(10, {1, 4, 7, 8});
  std::set<std::pair<Word, Word>> seen;
  for (Word x = 0; x < 1024; ++x)
    EXPECT_TRUE(seen.insert({f.index(x), f.tag(x)}).second);
}

TEST(BitSelect, MatrixFormIsBitSelecting) {
  const BitSelectFunction f(12, {2, 5, 9});
  const Matrix h = f.to_matrix();
  EXPECT_TRUE(is_bit_selecting(h));
  for (Word x = 0; x < 4096; ++x) EXPECT_EQ(h.apply(x), f.index(x));
}

TEST(BitSelect, ConventionalEquivalentToXorConventional) {
  const BitSelectFunction bs = BitSelectFunction::conventional(16, 10);
  const XorFunction xf = XorFunction::conventional(16, 10);
  for (Word x = 0; x < 4096; x += 7) {
    EXPECT_EQ(bs.index(x), xf.index(x));
    EXPECT_EQ(bs.tag(x), xf.tag(x));
  }
}

// ---------------------------------------------------------------------------
// Permutation-based functions (Section 4)
// ---------------------------------------------------------------------------

TEST(Permutation, ConventionalIsIdentityOnLowBits) {
  const PermutationFunction f = PermutationFunction::conventional(16, 8);
  for (Word x = 0; x < 4096; x += 13) EXPECT_EQ(f.index(x), x & 0xff);
}

TEST(Permutation, IndexFormula) {
  // G row 0 (address bit a2, n=4, m=2) taps both index bits.
  Matrix g(2, 2);
  g.set_row(0, 0b11);
  const PermutationFunction f(4, 2, g);
  EXPECT_EQ(f.index(0b0100), 0b11u);  // a2 set: lo=00 ^ 11
  EXPECT_EQ(f.index(0b0111), 0b00u);  // lo=11 ^ 11
  EXPECT_EQ(f.index(0b1000), 0b00u);  // a3 row is zero
}

TEST(Permutation, MapsAlignedRunsConflictFree) {
  // The defining theorem: every aligned run of 2^m consecutive blocks is
  // mapped to a permutation of the set indices.
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 12;
    const int m = 2 + static_cast<int>(rng() % 9);
    const PermutationFunction f(
        n, m, Matrix::random(n - m, m, rng));
    const Word run_base =
        (rng() & gf2::mask_of(n)) & ~gf2::mask_of(m);
    std::set<Word> indices;
    for (Word off = 0; off < (Word{1} << m); ++off)
      indices.insert(f.index(run_base + off));
    EXPECT_EQ(indices.size(), Word{1} << m) << "m=" << m;
  }
}

TEST(Permutation, SatisfiesEq5) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const PermutationFunction f(16, 8, Matrix::random(8, 8, rng));
    EXPECT_TRUE(is_permutation_based(f.to_matrix()));
    EXPECT_TRUE(is_permutation_based(f.null_space()));
  }
}

TEST(Permutation, NullSpaceClosedFormMatchesElimination) {
  std::mt19937_64 rng(19);
  for (int trial = 0; trial < 40; ++trial) {
    const PermutationFunction f(14, 6, Matrix::random(8, 6, rng));
    EXPECT_EQ(f.null_space(), gf2::null_space(f.to_matrix()));
  }
}

TEST(Permutation, ConventionalTagIsSound) {
  std::mt19937_64 rng(23);
  const PermutationFunction f(12, 5, Matrix::random(7, 5, rng));
  std::set<std::pair<Word, Word>> seen;
  for (Word x = 0; x < 4096; ++x)
    EXPECT_TRUE(seen.insert({f.index(x), f.tag(x)}).second);
  EXPECT_TRUE(tag_index_bijective(f));
}

TEST(Permutation, FanInCountsIdentityInput) {
  Matrix g(8, 8);
  g.set(0, 3, true);
  g.set(5, 3, true);
  const PermutationFunction f(16, 8, g);
  EXPECT_EQ(f.max_fan_in(), 3);  // identity + two G taps on column 3
  const PermutationFunction conv = PermutationFunction::conventional(16, 8);
  EXPECT_EQ(conv.max_fan_in(), 1);
}

TEST(Properties, FunctionIgnoringLowBitIsNotPermutationBased) {
  // A function that ignores address bit a0 has e0 in its null space, so
  // two adjacent blocks of an aligned run collide — Eq. 5 fails.
  Matrix h(4, 2);
  h.set_row(1, 0b01);
  h.set_row(2, 0b10);
  ASSERT_EQ(h.rank(), 2);
  EXPECT_FALSE(is_permutation_based(h));
  // Whereas any [G; I] function passes.
  Matrix ok(4, 2);
  ok.set_row(0, 0b01);
  ok.set_row(1, 0b10);
  ok.set_row(2, 0b11);
  ok.set_row(3, 0b01);
  EXPECT_TRUE(is_permutation_based(ok));
}

TEST(Properties, RespectsFanIn) {
  Matrix h(6, 3);
  h.set_row(0, 0b001);
  h.set_row(1, 0b010);
  h.set_row(2, 0b100);
  h.set_row(3, 0b100);
  EXPECT_TRUE(respects_fan_in(h, 2));
  EXPECT_FALSE(respects_fan_in(h, 1));
  h.set_row(4, 0b100);
  EXPECT_FALSE(respects_fan_in(h, 2));
}

TEST(Properties, BitSelectingDetection) {
  EXPECT_TRUE(is_bit_selecting(
      BitSelectFunction(8, {1, 3, 6}).to_matrix()));
  Matrix h(4, 2);
  h.set_row(0, 0b01);
  h.set_row(1, 0b11);
  h.set_row(2, 0b10);
  EXPECT_FALSE(is_bit_selecting(h));
}

// ---------------------------------------------------------------------------
// Hardware cost model: the Table 1 numbers, exactly.
// ---------------------------------------------------------------------------

struct Table1Row {
  int m;
  int bit_select;
  int optimized;
  int general_xor;
  int permutation;
};

class Table1Sweep : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1Sweep, MatchesPaper) {
  const Table1Row row = GetParam();
  const int n = 16;
  EXPECT_EQ(switch_count(ReconfigurableKind::bit_select_naive, n, row.m),
            row.bit_select);
  EXPECT_EQ(switch_count(ReconfigurableKind::bit_select_optimized, n, row.m),
            row.optimized);
  EXPECT_EQ(switch_count(ReconfigurableKind::general_xor_2in, n, row.m),
            row.general_xor);
  EXPECT_EQ(switch_count(ReconfigurableKind::permutation_based_2in, n, row.m),
            row.permutation);
}

INSTANTIATE_TEST_SUITE_P(
    PaperValues, Table1Sweep,
    ::testing::Values(Table1Row{8, 256, 144, 252, 72},    // 1 KB
                      Table1Row{10, 256, 136, 261, 70},   // 4 KB
                      Table1Row{12, 256, 112, 250, 60})); // 16 KB

TEST(HardwareCost, PermutationCheapestEverywhere) {
  // Strictly cheapest whenever some bits are actually hashed (m < n; at
  // m == n both degenerate to a fully fixed network).
  for (int m = 2; m <= 15; ++m) {
    const int perm =
        switch_count(ReconfigurableKind::permutation_based_2in, 16, m);
    EXPECT_LT(perm,
              switch_count(ReconfigurableKind::bit_select_naive, 16, m));
    EXPECT_LT(perm,
              switch_count(ReconfigurableKind::bit_select_optimized, 16, m));
    EXPECT_LT(perm, switch_count(ReconfigurableKind::general_xor_2in, 16, m));
  }
}

TEST(HardwareCost, WireAnalysisOfSection5) {
  const HardwareCost bs =
      hardware_cost(ReconfigurableKind::bit_select_naive, 16, 8);
  EXPECT_EQ(bs.wires_horizontal, 16);
  EXPECT_EQ(bs.wires_vertical, 16);
  const HardwareCost perm =
      hardware_cost(ReconfigurableKind::permutation_based_2in, 16, 8);
  EXPECT_EQ(perm.wires_horizontal, 8);  // n - m lines
  EXPECT_EQ(perm.wires_vertical, 8);    // crossed by m
  EXPECT_LT(perm.wire_crossings(), bs.wire_crossings());
  EXPECT_EQ(perm.xor_gates, 8);
  EXPECT_EQ(bs.xor_gates, 0);
}

TEST(HardwareCost, Names) {
  EXPECT_EQ(to_string(ReconfigurableKind::permutation_based_2in),
            "permutation-based");
  EXPECT_EQ(to_string(ReconfigurableKind::general_xor_2in), "general XOR");
}

TEST(CloneSupport, ClonesBehaveIdentically) {
  std::mt19937_64 rng(29);
  const PermutationFunction f(16, 8, Matrix::random(8, 8, rng));
  const auto clone = f.clone();
  for (Word x = 0; x < 4096; x += 5) {
    EXPECT_EQ(clone->index(x), f.index(x));
    EXPECT_EQ(clone->tag(x), f.tag(x));
  }
}

// ---------------------------------------------------------------------------
// Compiled (byte-sliced) form
// ---------------------------------------------------------------------------

/// Random addresses of three kinds: inside the low n bits, with random
/// bits above n, and single high bits.
std::vector<Word> probe_addresses(int n, std::mt19937_64& rng) {
  std::vector<Word> xs;
  const Word low = gf2::mask_of(n);
  for (int i = 0; i < 400; ++i) {
    const Word x = rng();
    xs.push_back(x & low);
    xs.push_back(x);
  }
  for (int b = 0; b < 64; ++b) xs.push_back(Word{1} << b);
  xs.push_back(~Word{0});
  return xs;
}

void expect_compiled_matches(const IndexFunction& f, std::mt19937_64& rng) {
  const CompiledIndex compiled(f);
  EXPECT_EQ(compiled.input_bits(), f.input_bits());
  EXPECT_EQ(compiled.index_bits(), f.index_bits());
  for (const Word x : probe_addresses(f.input_bits(), rng))
    ASSERT_EQ(compiled(x), f.index(x))
        << f.describe() << " n=" << f.input_bits() << " x=" << x;
}

TEST(CompiledIndex, MatchesIndexForEveryFunctionClass) {
  std::mt19937_64 rng(41);
  for (const int n : {5, 8, 12, 16, 20, 24}) {
    for (const int m : {1, n / 2, n - 1}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m));
      expect_compiled_matches(XorFunction{Matrix::random_full_rank(n, m, rng)},
                              rng);
      expect_compiled_matches(
          PermutationFunction(n, m, Matrix::random(n - m, m, rng)), rng);
      std::vector<int> positions(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) positions[static_cast<std::size_t>(i)] = i;
      std::shuffle(positions.begin(), positions.end(), rng);
      positions.resize(static_cast<std::size_t>(m));
      expect_compiled_matches(BitSelectFunction(n, positions), rng);
    }
  }
}

TEST(CompiledIndex, BitSelectFromMaskMatchesBitSelectFunction) {
  std::mt19937_64 rng(43);
  for (const int n : {5, 8, 12, 16, 20, 24}) {
    for (int trial = 0; trial < 20; ++trial) {
      const Word mask = rng() & gf2::mask_of(n);
      if (mask == 0) continue;
      std::vector<int> positions;
      for (int i = 0; i < n; ++i)
        if ((mask >> i) & 1u) positions.push_back(i);
      const BitSelectFunction f(n, positions);
      const CompiledIndex compiled = CompiledIndex::bit_select(n, mask);
      EXPECT_EQ(compiled.index_bits(), f.index_bits());
      for (const Word x : probe_addresses(n, rng))
        ASSERT_EQ(compiled(x), f.index(x)) << "mask=" << mask << " x=" << x;
    }
  }
}

TEST(CompiledIndex, RejectsWidthsBeyondTheTables) {
  EXPECT_THROW((void)CompiledIndex::bit_select(65, 1), std::invalid_argument);
  EXPECT_THROW((void)CompiledIndex::bit_select(40, gf2::mask_of(33)),
               std::invalid_argument);
}

}  // namespace
}  // namespace xoridx::hash
