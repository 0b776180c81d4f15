// Trace store throughput: v1-eager vs v2-mmap-streaming ingest and
// profile-build wall time, with an identity check against the in-memory
// path.
//
// The bench writes one synthetic trace in both formats, then measures
//   ingest    v1: load_trace_any (eager vector fill) — v2: drain a
//             MmapTraceReader batch by batch (O(chunk) resident)
//   profile   Figure-1 ConflictProfile build from the in-memory trace vs
//             a single streamed pass from the v2 reader
// and fails (exit 1) unless the streamed profile and simulation results
// are identical to the in-memory ones — the same guarantee the
// tracestore tests assert, checked here on bench-scale inputs.
//
//   tracestore_throughput [--accesses N] [--chunk N] [--cache BYTES]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "cache/simulate.hpp"
#include "profile/conflict_profile.hpp"
#include "tracestore/reader.hpp"
#include "tracestore/store.hpp"
#include "tracestore/writer.hpp"

namespace {

using namespace xoridx;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Mixed-pattern synthetic trace: strided kernel loops over a small pool
/// plus occasional far jumps, the shape real data traces compress like.
trace::Trace make_trace(std::uint64_t n) {
  std::mt19937_64 rng(2006);
  trace::Trace t;
  t.reserve(static_cast<std::size_t>(n));
  std::uint64_t addr = 0x10000;
  for (std::uint64_t i = 0; i < n; ++i) {
    switch (rng() % 8) {
      case 0: addr = 0x10000 + (rng() % 65536) * 4; break;  // pool jump
      case 1: addr = rng() % (std::uint64_t{1} << 32); break;  // far jump
      default: addr += 4; break;                             // stride
    }
    t.append(addr, static_cast<trace::AccessKind>(rng() % 3));
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t accesses = 4'000'000;
  std::uint32_t chunk = tracestore::default_chunk_capacity;
  std::uint32_t cache_bytes = 4096;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--accesses") == 0 && i + 1 < argc) {
      const long v = std::atol(argv[++i]);
      if (v > 0) accesses = static_cast<std::uint64_t>(v);
    } else if (std::strcmp(argv[i], "--chunk") == 0 && i + 1 < argc) {
      const long v = std::atol(argv[++i]);
      if (v > 0) chunk = static_cast<std::uint32_t>(v);
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      const long v = std::atol(argv[++i]);
      if (v > 0) cache_bytes = static_cast<std::uint32_t>(v);
    }
  }

  const std::string v1_path =
      (std::filesystem::temp_directory_path() / "xoridx_tput.v1").string();
  const std::string v2_path =
      (std::filesystem::temp_directory_path() / "xoridx_tput.v2").string();

  std::printf("tracestore throughput: %llu accesses, chunk capacity %u, "
              "%u B cache\n\n",
              static_cast<unsigned long long>(accesses), chunk, cache_bytes);
  const trace::Trace reference = make_trace(accesses);
  tracestore::save_trace_v1(v1_path, reference);
  tracestore::save_trace_v2(v2_path, reference, chunk);
  const std::uint64_t v1_bytes = std::filesystem::file_size(v1_path);
  const std::uint64_t v2_bytes = std::filesystem::file_size(v2_path);
  std::printf("file size   v1 %8.1f MB (9.00 B/access)\n", mb(v1_bytes));
  std::printf("            v2 %8.1f MB (%.2f B/access, %.1fx smaller)\n\n",
              mb(v2_bytes),
              static_cast<double>(v2_bytes) / static_cast<double>(accesses),
              static_cast<double>(v1_bytes) / static_cast<double>(v2_bytes));

  // ------------------------------------------------------------- ingest
  Clock::time_point start = Clock::now();
  const trace::Trace eager = tracestore::load_trace_any(v1_path);
  const double v1_ingest_s = seconds_since(start);

  start = Clock::now();
  tracestore::MmapTraceReader drain_reader(v2_path);
  std::vector<trace::Access> batch(8192);
  std::uint64_t streamed = 0;
  std::size_t got = 0;
  while ((got = drain_reader.next_batch(batch)) != 0) streamed += got;
  const double v2_ingest_s = seconds_since(start);

  std::printf("ingest      v1 eager      %8.3f s  %8.1f MB/s\n", v1_ingest_s,
              mb(v1_bytes) / v1_ingest_s);
  std::printf("            v2 mmap-stream%8.3f s  %8.1f MB/s decoded "
              "(%8.1f MB/s on disk)\n",
              v2_ingest_s, mb(streamed * 9) / v2_ingest_s,
              mb(v2_bytes) / v2_ingest_s);
  std::printf("            peak decoded buffer: %llu accesses "
              "(2 x chunk = %u)\n\n",
              static_cast<unsigned long long>(
                  drain_reader.peak_decoded_accesses()),
              2 * chunk);

  // ------------------------------------------------------------ profile
  const cache::CacheGeometry geom(cache_bytes, 4);
  start = Clock::now();
  const profile::ConflictProfile in_memory =
      profile::build_conflict_profile(eager, geom, bench::paper_hashed_bits);
  const double mem_profile_s = seconds_since(start);

  tracestore::MmapTraceReader profile_reader(v2_path);
  start = Clock::now();
  const profile::ConflictProfile streamed_profile =
      profile::build_conflict_profile(profile_reader, geom,
                                      bench::paper_hashed_bits);
  const double str_profile_s = seconds_since(start);

  std::printf("profile     in-memory     %8.3f s\n", mem_profile_s);
  std::printf("            v2 streamed   %8.3f s (%.2fx in-memory time)\n\n",
              str_profile_s, str_profile_s / mem_profile_s);

  // ----------------------------------------------------------- identity
  bool ok = streamed == accesses && eager == reference;
  if (!(streamed_profile == in_memory)) {
    std::fprintf(stderr, "FAIL: streamed profile differs from in-memory\n");
    ok = false;
  }
  const hash::XorFunction conv = hash::XorFunction::conventional(
      bench::paper_hashed_bits, geom.index_bits());
  const cache::CacheStats mem_sim =
      cache::simulate_direct_mapped(eager, geom, conv);
  const cache::CacheStats str_sim =
      cache::simulate_direct_mapped(profile_reader, geom, conv);
  if (mem_sim.misses != str_sim.misses ||
      mem_sim.accesses != str_sim.accesses) {
    std::fprintf(stderr, "FAIL: streamed simulation differs from in-memory\n");
    ok = false;
  }
  if (drain_reader.peak_decoded_accesses() > 2ull * chunk) {
    std::fprintf(stderr, "FAIL: decoded buffers exceeded the double-buffer "
                         "bound\n");
    ok = false;
  }
  std::printf("streamed results identical: %s\n", ok ? "yes" : "NO");

  std::filesystem::remove(v1_path);
  std::filesystem::remove(v2_path);
  return ok ? 0 : 1;
}
