// Trace container, I/O and generator tests, and the heap cost of the
// trace's column layout.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "heap_counter.hpp"
#include "trace/generators.hpp"
#include "trace/trace.hpp"
#include "tracestore/store.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::trace {
namespace {

TEST(Trace, AppendAndIterate) {
  Trace t;
  t.append(0x100, AccessKind::read);
  t.append({0x104, AccessKind::write});
  for (std::uint64_t i = 2; i < 10; ++i)
    t.append(0x100 + 4 * i, static_cast<AccessKind>(i % 3));
  ASSERT_EQ(t.size(), 10u);
  EXPECT_EQ(t[0].addr, 0x100u);
  EXPECT_EQ(t[1].kind, AccessKind::write);
  // Element access, iteration and the two columns agree, in order.
  ASSERT_EQ(t.addresses().size(), t.size());
  ASSERT_EQ(t.kinds().size(), t.size());
  std::size_t i = 0;
  for (const Access& a : t) {
    EXPECT_EQ(a, t[i]);
    EXPECT_EQ(a.addr, t.addresses()[i]);
    EXPECT_EQ(a.kind, t.kinds()[i]);
    EXPECT_EQ(a.addr, 0x100 + 4 * i);
    EXPECT_EQ(a.kind, static_cast<AccessKind>(i % 3));
    ++i;
  }
  EXPECT_EQ(i, t.size());
  const std::vector<Access> copied(t.begin(), t.end());
  ASSERT_EQ(copied.size(), t.size());
  EXPECT_EQ(copied.back(), t[9]);
}

TEST(Trace, EqualityComparesAddressesAndKinds) {
  Trace a;
  a.append(0x100, AccessKind::read);
  a.append(0x104, AccessKind::write);
  Trace b = a;
  EXPECT_EQ(a, b);

  Trace other_kind;
  other_kind.append(0x100, AccessKind::read);
  other_kind.append(0x104, AccessKind::fetch);
  EXPECT_NE(a, other_kind);

  Trace other_addr;
  other_addr.append(0x100, AccessKind::read);
  other_addr.append(0x108, AccessKind::write);
  EXPECT_NE(a, other_addr);

  b.append(0x108, AccessKind::read);
  EXPECT_NE(a, b);  // a is a prefix of b
  b.clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b, Trace{});
}

TEST(Trace, StatsCountKindsAndFootprint) {
  Trace t;
  t.append(0x100, AccessKind::read);
  t.append(0x101, AccessKind::write);  // same 4-byte block
  t.append(0x104, AccessKind::fetch);
  const TraceStats s = t.stats(2);
  EXPECT_EQ(s.references, 3u);
  EXPECT_EQ(s.reads, 1u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.fetches, 1u);
  EXPECT_EQ(s.distinct_blocks, 2u);
  EXPECT_EQ(s.min_addr, 0x100u);
  EXPECT_EQ(s.max_addr, 0x104u);
}

TEST(Trace, BlockAddresses) {
  Trace t;
  t.append(0, AccessKind::read);
  t.append(5, AccessKind::read);
  t.append(8, AccessKind::read);
  const auto blocks = t.block_addresses(2);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0], 0u);
  EXPECT_EQ(blocks[1], 1u);
  EXPECT_EQ(blocks[2], 2u);
}

TEST(Trace, FilterKinds) {
  Trace t;
  t.append(0, AccessKind::read);
  t.append(4, AccessKind::write);
  t.append(8, AccessKind::fetch);
  const Trace data = filter_kinds(t, true, true, false);
  EXPECT_EQ(data.size(), 2u);
  const Trace inst = filter_kinds(t, false, false, true);
  EXPECT_EQ(inst.size(), 1u);
  EXPECT_EQ(inst[0].kind, AccessKind::fetch);
  EXPECT_EQ(inst[0].addr, 8u);
  // Kept references stay in order with their own addresses and kinds.
  EXPECT_EQ(data[0], (Access{0, AccessKind::read}));
  EXPECT_EQ(data[1], (Access{4, AccessKind::write}));
  EXPECT_EQ(filter_kinds(t, true, true, true), t);
  EXPECT_TRUE(filter_kinds(t, false, false, false).empty());
}

// A resident trace is an address column and a kind column: 9 bytes per
// access, where an array of Access records (16 bytes each with padding)
// would cost 16.
TEST(TraceMemory, ReservedTraceCostsNineBytesPerAccess) {
  constexpr std::size_t n = 1'000'000;
  constexpr std::size_t slack = 4096;
  const std::size_t before = heap::reset_peak();
  Trace t;
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    t.append(4 * i, static_cast<AccessKind>(i % 3));
  ASSERT_EQ(t.size(), n);
  EXPECT_LE(heap::peak() - before, 9 * n + slack);
}

// One pass of an in-memory trace copies it through one batch buffer, so
// the pass allocates O(batch) whatever the trace's length.
TEST(TraceMemory, InMemoryPassAllocatesOneBatch) {
  constexpr std::size_t n = 1'000'000;
  Trace t;
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    t.append(4 * i, static_cast<AccessKind>(i % 3));
  const tracestore::TraceInput input(t);

  const std::size_t before = heap::reset_peak();
  std::uint64_t seen = 0;
  std::uint64_t sum = 0;
  input.for_each_batch([&](std::span<const Access> batch) {
    EXPECT_LE(batch.size(), tracestore::kBatch);
    seen += batch.size();
    for (const Access& a : batch) sum += a.addr;
  });
  EXPECT_EQ(seen, n);
  EXPECT_EQ(sum, 4 * (n * (n - 1) / 2));
  (void)tracestore::trace_id_of(input);
  EXPECT_LE(heap::peak() - before,
            tracestore::kBatch * sizeof(Access) + 4096);
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = temp_path("xoridx_trace_test.bin");
  Trace t;
  t.append(0xdeadbeefull, AccessKind::write);
  t.append(0x123456789abcull, AccessKind::fetch);
  for (int i = 0; i < 1000; ++i)
    t.append(static_cast<std::uint64_t>(i) * 12345,
             static_cast<AccessKind>(i % 3));
  EXPECT_EQ(tracestore::save_trace_v1(path, t), tracestore::trace_id_of(t));
  EXPECT_EQ(std::filesystem::file_size(path), 16u + 9u * t.size());
  EXPECT_EQ(tracestore::load_trace_any(path), t);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsBadMagic) {
  const std::string path = temp_path("xoridx_trace_bad_magic.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOTATRACEFILE, and longer than a header";  // the magic fails
  }
  EXPECT_THROW(tracestore::V1FileSource{path}, std::runtime_error);
  EXPECT_THROW((void)tracestore::load_trace_any(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsTruncated) {
  const std::string path = temp_path("xoridx_trace_truncated.bin");
  Trace t;
  t.append(1, AccessKind::read);
  tracestore::save_trace_v1(path, t);
  std::filesystem::resize_file(path, 16 + 9 - 3);
  EXPECT_THROW(tracestore::V1FileSource{path}, std::runtime_error);
  EXPECT_THROW((void)tracestore::load_trace_any(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Generators, StrideTrace) {
  const Trace t = stride_trace(0x1000, 64, 10);
  ASSERT_EQ(t.size(), 10u);
  EXPECT_EQ(t[0].addr, 0x1000u);
  EXPECT_EQ(t[9].addr, 0x1000u + 9 * 64);
}

TEST(Generators, InterleavedArrays) {
  const Trace t = interleaved_arrays_trace(0, 4096, 3, 4, 4, 2);
  EXPECT_EQ(t.size(), 2u * 4u * 3u);
  // Pattern: a[0], b[0], c[0], a[1], ...
  EXPECT_EQ(t[0].addr, 0u);
  EXPECT_EQ(t[1].addr, 4096u);
  EXPECT_EQ(t[2].addr, 8192u);
  EXPECT_EQ(t[2].kind, AccessKind::write);  // last vector is destination
  EXPECT_EQ(t[3].addr, 4u);
}

TEST(Generators, MatrixWalkRowThenColumn) {
  const Trace t = matrix_walk_trace(0, 2, 3, 4, 1);
  ASSERT_EQ(t.size(), 12u);
  EXPECT_EQ(t[0].addr, 0u);   // row walk: (0,0)
  EXPECT_EQ(t[1].addr, 4u);   // (0,1)
  EXPECT_EQ(t[6].addr, 0u);   // column walk: (0,0)
  EXPECT_EQ(t[7].addr, 12u);  // (1,0)
}

TEST(Generators, RandomTraceDeterministicBySeed) {
  const Trace a = random_trace(0, 100, 4, 500, 42);
  const Trace b = random_trace(0, 100, 4, 500, 42);
  const Trace c = random_trace(0, 100, 4, 500, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace xoridx::trace
