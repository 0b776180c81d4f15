// Deterministic chunked parallelization of a neighborhood scan.
//
// A permutation-climb iteration prices every neighbor independently. This
// helper splits the candidate index range into contiguous chunks and runs
// them on an engine::ThreadPool (the pool's per-worker deques were built
// for exactly this job granularity). Determinism contract: each chunk
// reduces its own candidates with the serial comparison rule and reports
// the *global scan rank* of its local winner; the caller reduces chunk
// results in ascending-rank order, so the selected candidate is identical
// to the serial scan for every thread and chunk count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <memory>
#include <vector>

#include "engine/thread_pool.hpp"
#include "obs/span.hpp"
#include "search/search_types.hpp"

namespace xoridx::search {

/// Pool for SearchOptions::threads: nullptr for the serial path
/// (threads == 1, or nothing to scan in parallel), else a private pool
/// with one thread FEWER than the requested worker count (0 = hardware
/// threads) — the calling thread is the remaining executor (see
/// scan_chunks). Results are bit-identical for every worker count, so
/// oversized requests clamp to max(hardware threads, 8) instead of
/// spawning an OS thread per unit — the small floor keeps multi-worker
/// determinism exercisable on single-core hosts.
[[nodiscard]] inline std::unique_ptr<engine::ThreadPool> make_scan_pool(
    const SearchOptions& options) {
  if (options.threads == 1) return nullptr;
  const unsigned hardware = engine::ThreadPool::default_threads();
  const unsigned requested =
      options.threads <= 0 ? hardware : static_cast<unsigned>(options.threads);
  const unsigned workers = std::min(requested, std::max(hardware, 8u));
  if (workers <= 1) return nullptr;  // single worker == serial scan
  return std::make_unique<engine::ThreadPool>(workers - 1);
}

/// The running winner of a scan: smallest estimate, earliest scan rank —
/// the (est, rank)-lexicographic order the serial first-strict-improvement
/// loop induces. Each chunk seeds `estimate` with the incumbent (current
/// climb) estimate, offers its candidates in ascending rank order, and
/// leaves rank == -1 when none improved. Merging chunk winners in
/// ascending-chunk order with the same strict rule (see merge) yields the
/// serial scan's selection exactly.
struct ScanBest {
  std::uint64_t estimate = 0;  ///< seed with the incumbent before offering
  std::ptrdiff_t rank = -1;    ///< serial scan rank of the winner, -1 = none

  /// Serial update rule: strictly smaller estimates win; equal estimates
  /// keep the earlier rank.
  void offer(std::uint64_t est, std::ptrdiff_t candidate_rank) {
    if (est < estimate) {
      estimate = est;
      rank = candidate_rank;
    }
  }

  /// Fold the winner of a later chunk in. Chunks hold disjoint ascending
  /// rank ranges, so strict comparison preserves earliest-rank-wins.
  void merge(const ScanBest& later) {
    if (later.rank >= 0) offer(later.estimate, later.rank);
  }
};

/// Split [0, count) into contiguous chunks and run
/// scan(chunk_index, begin, end) for each — shared between `pool` (when
/// given) and the calling thread, inline otherwise. `results` receives
/// one default-constructed Result per chunk, filled by the scan
/// callbacks; chunk boundaries and result order depend only on
/// (count, number of executors), never on scheduling. The callback must
/// touch shared state read-only and write only its own Result.
///
/// Execution model: chunks are claimed from an atomic cursor by
/// pool->size() drainer tasks on a TaskGroup plus the caller itself, so
/// every executor (caller included) works until the chunks run out — one
/// pool dispatch per *worker* per scan instead of one per *chunk*. The
/// pool must not be one the caller is a worker of (the group's wait
/// would park that worker). A throw inside a chunk (e.g. bad_alloc in
/// its scratch buffers) is captured by its drainer and rethrown here
/// after every chunk has run, the lowest chunk's first — never across
/// the pool boundary, where it would terminate the process and bypass
/// the engine's per-cell error capture.
template <typename Result, typename Scan>
void scan_chunks(engine::ThreadPool* pool, std::size_t count,
                 std::vector<Result>& results, Scan&& scan) {
  if (!pool || count < 2) {
    results.assign(1, Result{});
    scan(std::size_t{0}, std::size_t{0}, count);
    return;
  }
  // A few chunks per executor smooths uneven candidate costs without
  // shrinking tasks below useful granularity. Executors = pool workers
  // + the caller, so chunk boundaries (and therefore per-chunk reduction
  // results) depend only on the requested worker count.
  const std::size_t executors = static_cast<std::size_t>(pool->size()) + 1;
  const std::size_t max_chunks = executors * 4;
  const std::size_t chunks = count < max_chunks ? count : max_chunks;
  results.assign(chunks, Result{});
  std::vector<std::exception_ptr> errors(chunks);
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;

  std::atomic<std::size_t> cursor{0};
  const auto drain = [&scan, &errors, &cursor, chunks, base, extra] {
    XORIDX_SPAN("search", "scan_drain");
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= chunks) return;
      const std::size_t begin = i * base + std::min(i, extra);
      const std::size_t end = begin + base + (i < extra ? 1 : 0);
      try {
        scan(i, begin, end);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  // Declared after everything the drainers reference: if run() throws,
  // the group's destructor waits for the queued drainers before unwinding.
  engine::TaskGroup group(pool);
  for (unsigned w = 0; w < pool->size(); ++w) group.run(drain);
  drain();  // the caller is an executor, not a spectator
  group.wait();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace xoridx::search
