// Trace store tests: v2 format round-trips, format conversion, streaming
// identity with the in-memory consumers, TraceId content keying, and the
// heap and thread bounds of a streamed pass (one batch, no new thread).
#include <dirent.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cache/simulate.hpp"
#include "heap_counter.hpp"
#include "engine/profile_cache.hpp"
#include "hash/xor_function.hpp"
#include "profile/conflict_profile.hpp"
#include "search/exhaustive_bit_select.hpp"
#include "search/optimizer.hpp"
#include "trace/generators.hpp"
#include "tracestore/reader.hpp"
#include "tracestore/store.hpp"
#include "tracestore/trace_id.hpp"
#include "tracestore/trace_source.hpp"
#include "tracestore/writer.hpp"

namespace xoridx::tracestore {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Deterministic mixed-pattern trace exercising deltas of both signs,
/// large jumps and all three access kinds.
trace::Trace make_trace(std::size_t n, std::uint64_t seed = 42) {
  std::mt19937_64 rng(seed);
  trace::Trace t;
  t.reserve(n);
  std::uint64_t addr = 0x1000;
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng() % 4) {
      case 0: addr += 4; break;                       // sequential
      case 1: addr = 0x1000 + (rng() % 4096) * 4; break;  // small pool
      case 2: addr = rng() % (std::uint64_t{1} << 40); break;  // far jump
      default: addr -= std::min<std::uint64_t>(addr, 64); break;  // back
    }
    t.append(addr, static_cast<trace::AccessKind>(rng() % 3));
  }
  return t;
}

TEST(TraceStore, V2RoundTrip) {
  const std::string path = temp_path("xoridx_v2_roundtrip.trc");
  const trace::Trace t = make_trace(10000);
  const TraceId written = save_trace_v2(path, t, 1024);

  MmapTraceReader reader(path);
  EXPECT_EQ(reader.info().accesses, t.size());
  EXPECT_EQ(reader.info().chunk_capacity, 1024u);
  EXPECT_EQ(reader.info().chunks, (t.size() + 1023) / 1024);
  EXPECT_EQ(reader.info().id, written);
  EXPECT_EQ(written, trace_id_of(t));

  const trace::Trace back = drain_to_trace(reader);
  EXPECT_EQ(back, t);
  std::remove(path.c_str());
}

TEST(TraceStore, EmptyTraceRoundTrip) {
  const std::string path = temp_path("xoridx_v2_empty.trc");
  const trace::Trace empty;
  const TraceId id = save_trace_v2(path, empty);
  EXPECT_FALSE(id.empty());  // the empty trace still has a content id

  MmapTraceReader reader(path);
  EXPECT_EQ(reader.info().accesses, 0u);
  EXPECT_EQ(reader.info().chunks, 0u);
  std::vector<trace::Access> buf(16);
  EXPECT_EQ(reader.next_batch(buf), 0u);
  EXPECT_EQ(drain_to_trace(reader).size(), 0u);
  std::remove(path.c_str());
}

TEST(TraceStore, ConvertRoundTripV1V2V1) {
  const std::string v1_path = temp_path("xoridx_conv.v1");
  const std::string v2_path = temp_path("xoridx_conv.v2");
  const std::string v1_back = temp_path("xoridx_conv_back.v1");
  const trace::Trace t = make_trace(5000);
  save_trace_v1(v1_path, t);

  const TraceId id_v2 = convert_trace(v1_path, v2_path, TraceFormat::v2, 512);
  const TraceId id_v1 = convert_trace(v2_path, v1_back, TraceFormat::v1);
  EXPECT_EQ(id_v2, trace_id_of(t));
  EXPECT_EQ(id_v1, id_v2);

  // v1 -> v2 -> v1 is byte-identical, and both formats load equal traces.
  std::ifstream a(v1_path, std::ios::binary), b(v1_back, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  EXPECT_EQ(load_trace_any(v2_path), t);
  EXPECT_EQ(load_trace_any(v1_path), t);

  EXPECT_EQ(detect_trace_format(v1_path), TraceFormat::v1);
  EXPECT_EQ(detect_trace_format(v2_path), TraceFormat::v2);
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
  std::remove(v1_back.c_str());
}

TEST(TraceStore, ChunkBoundaryStraddlingReads) {
  const std::string path = temp_path("xoridx_straddle.v2");
  const trace::Trace t = make_trace(1000);
  save_trace_v2(path, t, 32);  // 32-access chunks: lots of boundaries

  // Batch sizes that never divide the chunk size force every read shape:
  // inside a chunk, across one boundary, across several chunks at once.
  for (const std::size_t batch : {std::size_t{7}, std::size_t{33},
                                  std::size_t{100}, std::size_t{999}}) {
    MmapTraceReader reader(path);
    std::vector<trace::Access> buf(batch);
    trace::Trace collected;
    std::size_t got = 0;
    while ((got = reader.next_batch(buf)) != 0)
      for (std::size_t i = 0; i < got; ++i) collected.append(buf[i]);
    EXPECT_EQ(collected, t) << "batch size " << batch;
  }

  // reset() rewinds to the first access.
  MmapTraceReader reader(path);
  std::vector<trace::Access> buf(40);
  ASSERT_EQ(reader.next_batch(buf), 40u);
  reader.reset();
  const trace::Trace again = drain_to_trace(reader);
  EXPECT_EQ(again, t);
  std::remove(path.c_str());
}

TEST(TraceStore, V1FileSourceStreamsAndValidates) {
  const std::string path = temp_path("xoridx_v1_stream.v1");
  const trace::Trace t = make_trace(1000);
  EXPECT_EQ(save_trace_v1(path, t), trace_id_of(t));

  const std::unique_ptr<TraceSource> source = open_trace_source(path);
  EXPECT_EQ(source->size(), t.size());
  EXPECT_EQ(drain_to_trace(*source), t);

  // Truncate the payload: the mmap source must reject the lying header.
  std::filesystem::resize_file(path, 16 + 9 * 10 - 3);
  EXPECT_THROW(V1FileSource{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceStore, V1RejectsLyingCountCleanly) {
  // A v1 header declaring 2^60 accesses over a 3-record body must throw a
  // clear runtime_error (not bad_alloc from a blind preallocation).
  const std::string path = temp_path("xoridx_v1_lying_count.v1");
  save_trace_v1(path, make_trace(3));
  {
    // Patch the little-endian count field (offset 8) to a huge value.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    f.put(static_cast<char>(0xff));
    f.seekp(14);
    f.put(static_cast<char>(0x0f));
  }
  try {
    (void)load_trace_any(path);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(TraceStore, RejectsCorruptV2Files) {
  const std::string path = temp_path("xoridx_corrupt.v2");
  const trace::Trace t = make_trace(500);
  save_trace_v2(path, t, 64);

  // Bad magic.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXXXXXX", 8);
  }
  EXPECT_THROW(MmapTraceReader{path}, std::runtime_error);
  EXPECT_THROW((void)detect_trace_format(path), std::runtime_error);

  // Restore magic, break the chunk index offset.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write(v2_magic.data(), 8);
    f.seekp(static_cast<std::streamoff>(v2_off_index_offset));
    const char big[8] = {~0, ~0, ~0, ~0, ~0, ~0, ~0, 0x7f};
    f.write(big, 8);
  }
  EXPECT_THROW(MmapTraceReader{path}, std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceStore, RejectsCorruptChunkIndexEntry) {
  // The offsets stored in the chunk index are untrusted too: corrupting
  // entry [1] must throw at open (the chunk-count cross-check) or when
  // streaming reaches it, not read out of the mapping.
  const std::string path = temp_path("xoridx_corrupt_entry.v2");
  const trace::Trace t = make_trace(200);
  save_trace_v2(path, t, 64);  // 4 chunks
  {
    MmapTraceReader probe(path);
    ASSERT_GE(probe.info().chunks, 2u);
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(v2_off_index_offset));
    unsigned char buf[8];
    f.read(reinterpret_cast<char*>(buf), 8);
    const std::uint64_t index_offset = load_le64(buf);
    unsigned char huge[8];
    store_le64(huge, std::uint64_t{1} << 60);
    f.seekp(static_cast<std::streamoff>(index_offset + 8));  // entry [1]
    f.write(reinterpret_cast<const char*>(huge), 8);
  }
  EXPECT_THROW(
      {
        MmapTraceReader reader(path);  // open-time chunk-count cross-check
        std::vector<trace::Access> buf(1000);
        while (reader.next_batch(buf) != 0) {
        }
      },
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceStore, RejectsLyingHeaderAccessCount) {
  // A corrupt total must fail at open with a clear error, not feed
  // consumers a wrong size() (they size reuse-distance structures from
  // it, which would silently corrupt profiles).
  const std::string path = temp_path("xoridx_lying_count.v2");
  const trace::Trace t = make_trace(500);
  save_trace_v2(path, t, 64);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    unsigned char half[8];
    store_le64(half, 250);
    f.seekp(static_cast<std::streamoff>(v2_off_access_count));
    f.write(reinterpret_cast<const char*>(half), 8);
  }
  try {
    MmapTraceReader reader(path);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("chunks hold"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(TraceStore, RefusesHardlinkedInPlaceConversion) {
  const std::string path = temp_path("xoridx_hardlink_a.v2");
  const std::string link = temp_path("xoridx_hardlink_b.v2");
  save_trace_v2(path, make_trace(100));
  std::error_code ec;
  std::filesystem::remove(link);
  std::filesystem::create_hard_link(path, link, ec);
  if (!ec) {  // filesystems without hardlinks skip the alias half
    EXPECT_THROW(convert_trace(path, link, TraceFormat::v1),
                 std::invalid_argument);
    EXPECT_EQ(load_trace_any(path).size(), 100u);
    std::filesystem::remove(link);
  }
  std::remove(path.c_str());
}

TEST(TraceStore, RefusesInPlaceConversion) {
  // In-place conversion would truncate the input while it is mmap'd.
  const std::string path = temp_path("xoridx_inplace.v2");
  save_trace_v2(path, make_trace(100));
  EXPECT_THROW(convert_trace(path, path, TraceFormat::v1),
               std::invalid_argument);
  EXPECT_EQ(load_trace_any(path).size(), 100u);  // input untouched
  std::remove(path.c_str());
}

TEST(TraceStore, TraceIdDistinguishesContentNotStorage) {
  const trace::Trace a = make_trace(2000, 1);
  const trace::Trace b = make_trace(2000, 1);   // equal content
  const trace::Trace c = make_trace(2000, 2);   // different content
  EXPECT_EQ(trace_id_of(a), trace_id_of(b));
  EXPECT_NE(trace_id_of(a), trace_id_of(c));

  // Order matters; a prefix is not the whole trace.
  trace::Trace prefix;
  for (std::size_t i = 0; i + 1 < a.size(); ++i) prefix.append(a[i]);
  EXPECT_NE(trace_id_of(a), trace_id_of(prefix));
}

// ------------------------------------------------ streaming consumers

TEST(TraceStore, StreamingProfileIdenticalToInMemory) {
  const std::string path = temp_path("xoridx_stream_profile.v2");
  const trace::Trace t = make_trace(20000);
  save_trace_v2(path, t, 1024);
  const cache::CacheGeometry geom(1024, 4);

  const profile::ConflictProfile in_memory =
      profile::build_conflict_profile(t, geom, 12);
  MmapTraceReader reader(path);
  const profile::ConflictProfile streamed =
      profile::build_conflict_profile(reader, geom, 12);
  EXPECT_EQ(streamed, in_memory);
  std::remove(path.c_str());
}

// Every arm of a TraceInput gives the same results at lengths on and
// around the batch size: an in-memory trace's columns, a MemorySource over
// them, and a v2 file loaded eagerly or streamed as --mmap does. The chunk
// capacities put a chunk boundary at every access (1), inside a batch
// (1000), on every batch boundary (4096 = kBatch) and past one (5000).
TEST(TraceStore, EveryInputArmGivesIdenticalResults) {
  const cache::CacheGeometry geom(256, 4);
  const hash::XorFunction fn =
      hash::XorFunction::conventional(12, geom.index_bits());
  struct Results {
    TraceId id;
    profile::ConflictProfile profile;
    cache::CacheStats direct;
    cache::MissBreakdown classes;
  };
  const auto run = [&](TraceInput input) {
    return Results{trace_id_of(input),
                   profile::build_conflict_profile(input, geom, 12),
                   cache::simulate_direct_mapped(input, geom, fn),
                   cache::classify_misses(input, geom, fn)};
  };
  const std::string path = temp_path("xoridx_input_arms.v2");
  for (const std::size_t n : {0u, 1u, 1023u, 1024u, 1025u, 4097u, 12289u}) {
    SCOPED_TRACE(n);
    const trace::Trace t = make_trace(n, n + 7);
    if (n > 100) {
      const trace::TraceStats stats = t.stats(2);
      ASSERT_GT(stats.reads, 0u);
      ASSERT_GT(stats.writes, 0u);
      ASSERT_GT(stats.fetches, 0u);
    }
    const Results want = run(t);
    EXPECT_EQ(want.direct.accesses, n);
    EXPECT_EQ(want.classes.accesses, n);
    MemorySource memory(t);
    const Results from_memory = run(memory);
    for (const std::uint32_t capacity : {1u, 1000u, 4096u, 5000u}) {
      SCOPED_TRACE(capacity);
      save_trace_v2(path, t, capacity);
      const trace::Trace eager = load_trace_any(path);
      ASSERT_EQ(eager, t);
      const std::unique_ptr<TraceSource> mmap = open_trace_source(path);
      for (const Results& got : {from_memory, run(eager), run(*mmap)}) {
        EXPECT_EQ(got.id, want.id);
        EXPECT_EQ(got.profile, want.profile);
        EXPECT_EQ(got.direct.accesses, want.direct.accesses);
        EXPECT_EQ(got.direct.misses, want.direct.misses);
        EXPECT_EQ(got.classes, want.classes);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(TraceStore, InMemoryTraceArrivesInBatches) {
  const trace::Trace t = make_trace(2 * kBatch + 1);
  std::vector<std::size_t> sizes;
  trace::Trace back;
  TraceInput(t).for_each_batch([&](std::span<const trace::Access> batch) {
    sizes.push_back(batch.size());
    for (const trace::Access& a : batch) back.append(a);
  });
  EXPECT_EQ(sizes, (std::vector<std::size_t>{kBatch, kBatch, 1}));
  EXPECT_EQ(back, t);
}

TEST(TraceStore, StreamingSimulationIdenticalToInMemory) {
  const std::string path = temp_path("xoridx_stream_sim.v2");
  const trace::Trace t = make_trace(20000);
  save_trace_v2(path, t, 512);
  const cache::CacheGeometry geom(1024, 4);
  const hash::XorFunction fn =
      hash::XorFunction::conventional(16, geom.index_bits());

  MmapTraceReader reader(path);
  const cache::CacheStats dm_mem = cache::simulate_direct_mapped(t, geom, fn);
  const cache::CacheStats dm_str =
      cache::simulate_direct_mapped(reader, geom, fn);
  EXPECT_EQ(dm_mem.accesses, dm_str.accesses);
  EXPECT_EQ(dm_mem.misses, dm_str.misses);

  // The driver resets the source, so the same reader serves more passes.
  const cache::CacheStats fa_mem = cache::simulate_fully_associative(t, geom);
  const cache::CacheStats fa_str =
      cache::simulate_fully_associative(reader, geom);
  EXPECT_EQ(fa_mem.misses, fa_str.misses);

  const cache::MissBreakdown cl_mem = cache::classify_misses(t, geom, fn);
  const cache::MissBreakdown cl_str = cache::classify_misses(reader, geom, fn);
  EXPECT_EQ(cl_mem, cl_str);

  // The exhaustive entry points: the exact sweep extracts block addresses
  // from either input, the estimated one simulates its winner once.
  const search::ExhaustiveBitSelectResult ex_mem =
      search::optimal_bit_select(t, geom, 12);
  const search::ExhaustiveBitSelectResult ex_str =
      search::optimal_bit_select(reader, geom, 12);
  EXPECT_EQ(ex_mem.misses, ex_str.misses);
  EXPECT_EQ(ex_mem.candidates, ex_str.candidates);
  EXPECT_EQ(ex_mem.function.describe(), ex_str.function.describe());

  const profile::ConflictProfile profile =
      profile::build_conflict_profile(t, geom, 12);
  const search::ExhaustiveBitSelectResult es_mem =
      search::optimal_bit_select_estimated(t, geom, profile);
  const search::ExhaustiveBitSelectResult es_str =
      search::optimal_bit_select_estimated(reader, geom, profile);
  EXPECT_EQ(es_mem.misses, es_str.misses);
  EXPECT_EQ(es_mem.candidates, es_str.candidates);
  EXPECT_EQ(es_mem.function.describe(), es_str.function.describe());
  std::remove(path.c_str());
}

TEST(TraceStore, StreamingOptimizeIdenticalToInMemory) {
  const std::string path = temp_path("xoridx_stream_opt.v2");
  const trace::Trace t = trace::interleaved_arrays_trace(0, 4096, 3, 4, 256, 8);
  save_trace_v2(path, t, 256);
  const cache::CacheGeometry geom(1024, 4);
  const profile::ConflictProfile profile =
      profile::build_conflict_profile(t, geom, 16);

  search::OptimizeOptions options;
  options.search.function_class = search::FunctionClass::permutation;
  const search::OptimizationResult mem =
      search::optimize_index_with_profile(t, geom, profile, options);
  MmapTraceReader reader(path);
  const search::OptimizationResult str =
      search::optimize_index_with_profile(reader, geom, profile, options);
  EXPECT_EQ(mem.baseline_misses, str.baseline_misses);
  EXPECT_EQ(mem.optimized_misses, str.optimized_misses);
  EXPECT_EQ(mem.estimated_misses, str.estimated_misses);
  EXPECT_EQ(mem.function->describe(), str.function->describe());

  // The whole pipeline, profile included, from either input.
  options.search.function_class = search::FunctionClass::general_xor;
  const search::OptimizationResult full_mem =
      search::optimize_index(t, geom, options);
  const search::OptimizationResult full_str =
      search::optimize_index(reader, geom, options);
  EXPECT_EQ(full_mem.accesses, full_str.accesses);
  EXPECT_EQ(full_mem.baseline_misses, full_str.baseline_misses);
  EXPECT_EQ(full_mem.optimized_misses, full_str.optimized_misses);
  EXPECT_EQ(full_mem.estimated_misses, full_str.estimated_misses);
  EXPECT_EQ(full_mem.function->describe(), full_str.function->describe());
  std::remove(path.c_str());
}

// ----------------------------------------------------- ProfileCache keying

TEST(ProfileCacheTraceId, EqualContentTracesShareOneEntry) {
  // Two distinct Trace objects, equal content: the rekeyed cache must
  // build once and share (the old raw-pointer key built twice).
  const trace::Trace a = make_trace(4000, 7);
  const trace::Trace b = make_trace(4000, 7);
  ASSERT_NE(&a, &b);
  ASSERT_EQ(a, b);

  engine::ProfileCache cache;
  const cache::CacheGeometry geom(1024, 4);
  const auto pa = cache.get_or_build(trace_id_of(a), a, geom, 12);
  const auto pb = cache.get_or_build(trace_id_of(b), b, geom, 12);
  EXPECT_EQ(pa.get(), pb.get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProfileCacheTraceId, FileBackedTraceSharesWithInMemoryCopy) {
  const std::string path = temp_path("xoridx_cache_share.v2");
  const trace::Trace t = make_trace(4000, 9);
  const TraceId id = save_trace_v2(path, t, 512);
  const cache::CacheGeometry geom(1024, 4);

  engine::ProfileCache cache;
  const auto from_memory = cache.get_or_build(trace_id_of(t), t, geom, 12);
  MmapTraceReader reader(path);
  const auto from_file = cache.get_or_build(id, reader, geom, 12);
  EXPECT_EQ(from_memory.get(), from_file.get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  std::remove(path.c_str());
}

// ------------------------------------------------ bounded streaming

/// Heap a streamed pass may allocate: its batch plus small change.
constexpr std::size_t kPassHeapBound = kBatch * sizeof(trace::Access) + 4096;

/// Threads of this process, counted with the C directory API so the count
/// allocates nothing the heap counter sees.
std::size_t thread_count() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (const dirent* entry = ::readdir(dir))
    if (entry->d_name[0] != '.') ++n;
  ::closedir(dir);
  return n;
}

TEST(TraceStore, StreamedPassHoldsOneBatchAndStartsNoThread) {
  const std::string path = temp_path("xoridx_bounded_pass.v2");
  const trace::Trace t = make_trace(200'000);
  const TraceId id = save_trace_v2(path, t);  // 64Ki-access chunks
  const std::unique_ptr<TraceSource> source = open_trace_source(path);
  ASSERT_GT(t.size(), 3u * default_chunk_capacity);

  // The first pass registers the reader's counters and this thread's
  // metrics slab; the second is the one measured.
  ASSERT_EQ(trace_id_of(*source), id);
  const std::size_t threads_before = thread_count();
  ASSERT_GT(threads_before, 0u);
  std::size_t threads_seen = 0;
  TraceIdHasher hasher;
  const std::size_t heap_before = heap::reset_peak();
  TraceInput(*source).for_each_batch(
      [&](std::span<const trace::Access> batch) {
        for (const trace::Access& a : batch) hasher.update(a);
        threads_seen = std::max(threads_seen, thread_count());
      });
  EXPECT_LE(heap::peak() - heap_before, kPassHeapBound);
  EXPECT_EQ(threads_seen, threads_before);
  EXPECT_EQ(hasher.digest(), id);
  std::remove(path.c_str());
}

TEST(TraceStore, TenMillionAccessesStreamWithBoundedBuffers) {
  const std::string path = temp_path("xoridx_10m.v2");
  constexpr std::uint64_t accesses = 10'000'000;
  constexpr std::uint32_t chunk = 1u << 15;

  // Stream-generate straight into the writer: the 10M-access trace never
  // exists in memory on the write side either.
  {
    TraceWriter writer(path, chunk);
    std::mt19937_64 rng(123);
    for (std::uint64_t i = 0; i < accesses; ++i)
      writer.append(0x1000 + (rng() % 4096) * 4,
                    static_cast<trace::AccessKind>(rng() % 3));
    EXPECT_EQ(writer.finish().empty(), false);
  }

  MmapTraceReader reader(path);
  ASSERT_EQ(reader.info().accesses, accesses);
  const cache::CacheGeometry geom(1024, 4);
  const profile::ConflictProfile p =
      profile::build_conflict_profile(reader, geom, 12);
  EXPECT_EQ(p.references, accesses);
  EXPECT_GT(p.profiled_refs + p.capacity_filtered_refs, 0u);

  // The acceptance bound: a whole pass over the 10M accesses holds one
  // batch of decoded accesses, whatever the trace's length.
  const std::size_t heap_before = heap::reset_peak();
  EXPECT_EQ(trace_id_of(reader), reader.info().id);
  EXPECT_LE(heap::peak() - heap_before, kPassHeapBound);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xoridx::tracestore
