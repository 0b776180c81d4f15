#include "engine/profile_cache.hpp"

#include <cstdio>

#include "io/fnv.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace xoridx::engine {

std::size_t ProfileCache::KeyHash::operator()(const Key& k) const noexcept {
  // FNV-1a-style, one whole field per step.
  std::uint64_t h = io::fnv1a_short_basis;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= io::fnv1a_prime;
  };
  mix(k.id.lo);
  mix(k.id.hi);
  mix(k.geometry.size_bytes);
  mix(k.geometry.block_bytes);
  mix(k.geometry.associativity);
  mix(static_cast<std::uint64_t>(k.hashed_bits));
  return static_cast<std::size_t>(h);
}

void ProfileCache::evict_to_budget_locked(const Key* keep) {
  if (byte_budget_ == 0) return;
  while (bytes_ > byte_budget_) {
    // Stalest ready entry, skipping in-flight builds (their waiters
    // share the future) and the entry the caller just used.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.bytes == 0) continue;
      if (keep != nullptr && it->first == *keep) continue;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use)
        victim = it;
    }
    if (victim == entries_.end()) return;  // nothing evictable
    bytes_ -= victim->second.bytes;
    XORIDX_OBS_GAUGE_ADD(
        "profile_cache.bytes",
        -static_cast<std::int64_t>(victim->second.bytes));
    entries_.erase(victim);
    ++evictions_;
    XORIDX_OBS_COUNT("profile_cache.evictions", 1);
  }
}

ProfileCache::ProfilePtr ProfileCache::get_or_build(
    const tracestore::TraceId& id, tracestore::TraceInput t,
    const cache::CacheGeometry& geometry, int hashed_bits) {
  const Key key{id, geometry, hashed_bits};
  std::promise<ProfilePtr> promise;
  std::shared_future<ProfilePtr> future;
  bool builder = false;
  {
    std::lock_guard lock(mutex_);
    auto [it, inserted] = entries_.try_emplace(key);
    it->second.last_use = ++use_clock_;
    if (inserted) {
      it->second.future = promise.get_future().share();
      builder = true;
      ++misses_;
      XORIDX_OBS_COUNT("profile_cache.misses", 1);
    } else {
      ++hits_;
      XORIDX_OBS_COUNT("profile_cache.hits", 1);
    }
    future = it->second.future;
  }
  if (builder) {
    XORIDX_SPAN_NAMED(span, "profile", "build_conflict_profile");
    XORIDX_SPAN_DETAIL(span, [&] {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "trace=%016llx%016llx",
                    static_cast<unsigned long long>(key.id.hi),
                    static_cast<unsigned long long>(key.id.lo));
      return std::string(buf);
    }());
#if XORIDX_OBS_ENABLED
    const std::uint64_t build_start = obs::now_ns();
#endif
    try {
      auto profile = std::make_shared<const profile::ConflictProfile>(
          profile::build_conflict_profile(t, geometry, hashed_bits));
      const std::size_t profile_bytes = profile->memory_bytes();
      promise.set_value(std::move(profile));
      XORIDX_OBS_HIST("profile_cache.build_ns",
                      obs::now_ns() - build_start);
      std::lock_guard lock(mutex_);
      // The entry may be gone already (clear(), or evicted by a
      // concurrent builder finishing first under a tight budget); only
      // a live entry gets charged.
      if (auto it = entries_.find(key); it != entries_.end()) {
        it->second.bytes = profile_bytes;
        bytes_ += profile_bytes;
        XORIDX_OBS_GAUGE_ADD("profile_cache.bytes",
                             static_cast<std::int64_t>(profile_bytes));
        evict_to_budget_locked(&key);
      }
    } catch (...) {
      promise.set_exception(std::current_exception());
      // Don't cache the failure: peers already waiting on this future see
      // the exception, but later requests retry the build instead of
      // rethrowing a stale error (and being miscounted as hits) forever.
      std::lock_guard lock(mutex_);
      entries_.erase(key);
    }
  }
  return future.get();
}

std::size_t ProfileCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

void ProfileCache::set_byte_budget(std::size_t bytes) {
  std::lock_guard lock(mutex_);
  byte_budget_ = bytes;
  evict_to_budget_locked(nullptr);
}

std::size_t ProfileCache::byte_budget() const {
  std::lock_guard lock(mutex_);
  return byte_budget_;
}

std::size_t ProfileCache::bytes() const {
  std::lock_guard lock(mutex_);
  return bytes_;
}

void ProfileCache::release(const tracestore::TraceId& id,
                           const cache::CacheGeometry& geometry,
                           int hashed_bits) {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(Key{id, geometry, hashed_bits});
  if (it == entries_.end()) return;
  if (it->second.bytes > 0) {
    bytes_ -= it->second.bytes;
    XORIDX_OBS_GAUGE_ADD("profile_cache.bytes",
                         -static_cast<std::int64_t>(it->second.bytes));
  }
  entries_.erase(it);
}

void ProfileCache::clear() {
  std::lock_guard lock(mutex_);
  if (bytes_ > 0)
    XORIDX_OBS_GAUGE_ADD("profile_cache.bytes",
                         -static_cast<std::int64_t>(bytes_));
  entries_.clear();
  bytes_ = 0;
  hits_ = 0;
  misses_ = 0;
}

}  // namespace xoridx::engine
