// Shared, thread-safe cache of ConflictProfile construction.
//
// Profiling a trace (Figure 1) depends only on the trace content, the
// cache geometry and n — one profile serves every function class and
// fan-in limit of a sweep row. In a campaign the profile is by far the
// most expensive shared prefix, so concurrent jobs deduplicate it here:
// the first requester builds, everyone else blocks on a shared_future for
// the same key. Hit/miss counters make the dedup observable (and
// testable).
//
// Entries are keyed by the trace's content TraceId (tracestore/), not its
// address: two distinct Trace objects with equal content share one entry,
// a file-backed streaming trace shares with its in-memory copy, and
// nothing requires the caller to keep a particular object alive.
//
// An optional byte budget (set_byte_budget) bounds resident profile
// memory with least-recently-used eviction: when a completed build
// pushes the cached total past the budget, the stalest ready entries are
// dropped until the total fits again. Entries still building are never
// evicted (waiters share their future), the entry just built/hit is
// always retained (so the budget is a soft cap, never thrashing the
// working profile), and readers holding a ProfilePtr keep their profile
// alive past eviction — the budget bounds what the cache retains, not
// what callers borrowed.
//
// An owner that knows a profile has no readers left can drop it at once
// with release(): a campaign with a private cache releases each profile
// after the last of its jobs has read it, so a finished campaign holds
// none.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "cache/geometry.hpp"
#include "profile/conflict_profile.hpp"
#include "tracestore/trace_id.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::engine {

class ProfileCache {
 public:
  using ProfilePtr = std::shared_ptr<const profile::ConflictProfile>;

  /// Return the profile for (trace content, geometry, hashed_bits),
  /// building it on first request with one pass over `t` (an in-memory
  /// trace is walked in place, a source is reset and streamed in batches).
  /// `id` is the content id of `t`, which the caller already resolved.
  /// Thread-safe; concurrent requests for one key build exactly once.
  [[nodiscard]] ProfilePtr get_or_build(const tracestore::TraceId& id,
                                        tracestore::TraceInput t,
                                        const cache::CacheGeometry& geometry,
                                        int hashed_bits);

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t size() const;

  /// Cap resident profile bytes (0 = unlimited, the default). Takes
  /// effect immediately: shrinking below the current total evicts the
  /// least-recently-used ready entries right away.
  void set_byte_budget(std::size_t bytes);
  [[nodiscard]] std::size_t byte_budget() const;
  /// Bytes of completed profiles currently retained by the cache.
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_;
  }

  /// Drop the entry for (content id, geometry, hashed_bits) and stop
  /// charging its bytes; no-op when there is none. Readers holding its
  /// ProfilePtr keep the profile alive, and a later request rebuilds it.
  void release(const tracestore::TraceId& id,
               const cache::CacheGeometry& geometry, int hashed_bits);

  void clear();

 private:
  struct Key {
    tracestore::TraceId id;
    cache::CacheGeometry geometry;
    int hashed_bits;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    std::shared_future<ProfilePtr> future;
    std::size_t bytes = 0;        ///< 0 while the build is in flight
    std::uint64_t last_use = 0;   ///< LRU stamp from use_clock_
  };

  /// Evict LRU ready entries (never `keep`) until the budget fits.
  /// Caller must hold mutex_.
  void evict_to_budget_locked(const Key* keep);

  mutable std::mutex mutex_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::size_t byte_budget_ = 0;  ///< 0 = unlimited
  std::size_t bytes_ = 0;        ///< total of ready entries' bytes
  std::uint64_t use_clock_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace xoridx::engine
