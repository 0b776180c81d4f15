// Conflict-vector profiling (paper Figure 1 and Section 3.1).
//
// One pass over the trace accumulates misses(v): how often the XOR
// difference v = x XOR y (truncated to the n hashed bits) occurred between
// a reference to block x and an intervening reference to block y since the
// previous use of x. A hash function H then suffers an *estimated*
// misses(H) = sum of misses(v) over v in N(H) (Eq. 4). Compulsory misses
// and capacity misses (reuse distance greater than the cache capacity in
// blocks) are filtered out, as neither is solvable by re-indexing.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "cache/geometry.hpp"
#include "gf2/bitvec.hpp"
#include "gf2/subspace.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::profile {

class ConflictProfile {
 public:
  /// `hashed_bits` is the paper's n; the dense table holds 2^n counters.
  explicit ConflictProfile(int hashed_bits, std::uint32_t capacity_blocks);

  // Copies get a fresh (empty) subset-sum cache; a move hands the cache
  // over and leaves the moved-from object fit only for destruction or
  // reassignment. The counter table and bookkeeping copy and move as
  // values.
  ConflictProfile(const ConflictProfile& other);
  ConflictProfile& operator=(const ConflictProfile& other);
  ConflictProfile(ConflictProfile&& other) noexcept;
  ConflictProfile& operator=(ConflictProfile&& other) noexcept;
  ~ConflictProfile() = default;

  [[nodiscard]] int hashed_bits() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t capacity_blocks() const noexcept {
    return capacity_blocks_;
  }

  /// misses(v) of Figure 1.
  [[nodiscard]] std::uint64_t misses(gf2::Word v) const {
    return table_[static_cast<std::size_t>(v)];
  }

  void add(gf2::Word v, std::uint64_t count = 1) {
    // The subset-sum view snapshots the table at first use; mutating the
    // table afterwards would silently desynchronize every bit-select
    // kernel reading the view. Profiles are write-once (Figure 1 pass)
    // then read-only, so this is a contract assertion, not a runtime path.
    assert(!zeta_ || !zeta_->built.load(std::memory_order_relaxed));
    table_[static_cast<std::size_t>(v)] += count;
  }

  /// Lazily-built subset-sum (SOS / zeta transform) view of the table:
  /// subset_sums()[u] is the sum of misses(v) over every submask v of u —
  /// exactly Eq. 4 for the bit-selecting function whose *unselected*
  /// positions are the set bits of u. Built once per profile at n * 2^n
  /// cost (one pass per bit over a 2^n table, ~0.5 MB for n = 16) on
  /// first call; afterwards every bit-select candidate, including the
  /// exhaustive C(n, m) sweep, answers in O(1). Thread-safe: concurrent
  /// first calls build exactly once (the profile is shared read-only
  /// across engine workers via ProfileCache).
  [[nodiscard]] const std::vector<std::uint64_t>& subset_sums() const;

  /// Eq. 4: estimated conflict misses of the hash function whose null
  /// space is `ns` — the sum of misses(v) over all members v of ns
  /// (including v = 0, whose count is identical for every function).
  [[nodiscard]] std::uint64_t estimate_misses(const gf2::Subspace& ns) const;

  /// Total conflict-vector mass (sum over all v != 0); useful as an upper
  /// bound and for normalization in reports.
  [[nodiscard]] std::uint64_t total_mass() const;

  /// Number of distinct nonzero vectors with a count.
  [[nodiscard]] std::size_t distinct_vectors() const;

  /// Resident bytes charged against cache budgets: the counter table
  /// plus the subset-sum view at full size, whether or not the view has
  /// been built yet — byte accounting (ProfileCache's LRU budget) must
  /// not depend on which reader touched the zeta view first.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return 2 * table_.size() * sizeof(std::uint64_t) + sizeof(*this) +
           sizeof(ZetaCache);
  }

  // Bookkeeping from the profiling pass.
  std::uint64_t references = 0;
  std::uint64_t compulsory_refs = 0;
  std::uint64_t capacity_filtered_refs = 0;
  std::uint64_t profiled_refs = 0;
  std::uint64_t pair_count = 0;  ///< total (x, y) pairs counted

  /// Full-state equality (table and bookkeeping) — what the streaming
  /// identity tests and benches assert.
  friend bool operator==(const ConflictProfile& a, const ConflictProfile& b) {
    return a.n_ == b.n_ && a.capacity_blocks_ == b.capacity_blocks_ &&
           a.table_ == b.table_ && a.references == b.references &&
           a.compulsory_refs == b.compulsory_refs &&
           a.capacity_filtered_refs == b.capacity_filtered_refs &&
           a.profiled_refs == b.profiled_refs &&
           a.pair_count == b.pair_count;
  }

 private:
  /// Lazy zeta-transform cache. Lives behind a unique_ptr because
  /// once_flag is neither copyable nor movable; copy/move of the profile
  /// re-arm a fresh cache instead (see the special members above).
  struct ZetaCache {
    std::once_flag once;
    std::atomic<bool> built{false};
    std::vector<std::uint64_t> table;
  };

  int n_;
  std::uint32_t capacity_blocks_;
  std::vector<std::uint64_t> table_;
  mutable std::unique_ptr<ZetaCache> zeta_ = std::make_unique<ZetaCache>();
};

/// Run Figure 1 over a trace: push compulsory references, skip references
/// whose reuse distance exceeds the cache capacity, and accumulate
/// conflict vectors for the rest. Addresses are converted to block
/// addresses with geometry.offset_bits(). A reference is profiled exactly
/// when it would hit in a fully-associative LRU cache of num_blocks() + 1
/// blocks (reuse distance <= num_blocks()).
///
/// Working state is the top num_blocks() + 1 entries of the LRU stack
/// plus one flag per distinct block: it scales with the cache and the
/// footprint, not with the trace length. An in-memory trace is walked in
/// place; a streamed one holds only one batch of decoded accesses.
[[nodiscard]] ConflictProfile build_conflict_profile(
    tracestore::TraceInput t, const cache::CacheGeometry& geometry,
    int hashed_bits);

}  // namespace xoridx::profile
