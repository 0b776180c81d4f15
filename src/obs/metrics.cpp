#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <iterator>

#include "api/version.hpp"
#include "serve/json.hpp"

namespace xoridx::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

/// Bucket of a value: bit_width, clamped to the last bucket.
std::uint32_t bucket_of(std::uint64_t value) noexcept {
  const std::uint32_t w = static_cast<std::uint32_t>(std::bit_width(value));
  return w < histogram_buckets ? w : histogram_buckets - 1;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------- handles

void Counter::add(std::uint64_t n) const noexcept {
  if (registry_ == nullptr || id_ >= max_counters || !metrics_enabled())
    return;
  registry_->local_slab().counters[id_].fetch_add(n,
                                                  std::memory_order_relaxed);
}

void Gauge::add(std::int64_t delta) const noexcept {
  if (registry_ == nullptr || id_ >= max_gauges || !metrics_enabled()) return;
  registry_->gauges_[id_].fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::set(std::int64_t value) const noexcept {
  if (registry_ == nullptr || id_ >= max_gauges || !metrics_enabled()) return;
  registry_->gauges_[id_].store(value, std::memory_order_relaxed);
}

void Histogram::record(std::uint64_t value) const noexcept {
  if (registry_ == nullptr || id_ >= max_histograms || !metrics_enabled())
    return;
  MetricsRegistry::HistSlots& h =
      registry_->local_slab().histograms[id_];
  h.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  h.count.fetch_add(1, std::memory_order_relaxed);
  // The slab is written by this thread only; max is a read-modify-store,
  // torn only against the snapshot reader, which tolerates lag.
  if (value > h.max.load(std::memory_order_relaxed))
    h.max.store(value, std::memory_order_relaxed);
}

// ------------------------------------------------------------ registry

/// Registers the thread's slab on first use and folds it into the
/// retired totals on thread exit, so exited workers keep counting.
/// The weak sentinel skips the fold when the registry died first.
struct SlabHolder {
  MetricsRegistry* owner = nullptr;
  std::weak_ptr<char> alive;
  std::shared_ptr<MetricsRegistry::Slab> slab;
  std::uint64_t generation = 0;
  ~SlabHolder() {
    if (owner != nullptr && slab && alive.lock()) owner->retire(slab);
  }
};

MetricsRegistry::Slab& MetricsRegistry::local_slab() {
  // One holder per (thread, registry-lifetime): tests construct private
  // registries, so the cache keys on `this` and re-registers when the
  // thread outlives a registry generation change (reset()).
  thread_local std::unordered_map<const MetricsRegistry*,
                                  std::unique_ptr<SlabHolder>>
      holders;
  std::unique_ptr<SlabHolder>& holder = holders[this];
  if (!holder) holder = std::make_unique<SlabHolder>();
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (holder->alive.lock() != alive_ || holder->generation != gen) {
    // First record on this (thread, registry) pair, a reset() since the
    // last one, or a new registry reusing a dead one's address: drop any
    // stale slab (its fold target is detached or gone) and register a
    // fresh one.
    holder->owner = this;
    holder->alive = alive_;
    holder->slab = std::make_shared<Slab>();
    holder->generation = gen;
    std::lock_guard lock(mutex_);
    slabs_.push_back(holder->slab);
  }
  return *holder->slab;
}

void MetricsRegistry::retire(const std::shared_ptr<Slab>& slab) {
  std::lock_guard lock(mutex_);
  const auto it = std::find(slabs_.begin(), slabs_.end(), slab);
  if (it == slabs_.end()) return;  // reset() already detached it
  for (std::uint32_t c = 0; c < max_counters; ++c)
    retired_.counters[c] +=
        slab->counters[c].load(std::memory_order_relaxed);
  for (std::uint32_t h = 0; h < max_histograms; ++h) {
    const HistSlots& src = slab->histograms[h];
    Retired::Hist& dst = retired_.histograms[h];
    for (std::uint32_t b = 0; b < histogram_buckets; ++b)
      dst.buckets[b] += src.buckets[b].load(std::memory_order_relaxed);
    dst.sum += src.sum.load(std::memory_order_relaxed);
    dst.count += src.count.load(std::memory_order_relaxed);
    dst.max = std::max(dst.max, src.max.load(std::memory_order_relaxed));
  }
  slabs_.erase(it);
}

MetricsRegistry::~MetricsRegistry() {
  // Releasing alive_ expires every holder's weak sentinel, so threads
  // that outlive this registry (e.g. the main thread after a test-scope
  // registry) skip the retire fold instead of chasing a dangling owner.
  // Threads still *recording* concurrently with destruction must not
  // exist — same contract as any destroyed object.
}

Counter MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  const auto [it, inserted] =
      counter_ids_.try_emplace(name, static_cast<std::uint32_t>(
                                         counter_names_.size()));
  if (inserted) {
    if (it->second >= max_counters) {
      counter_ids_.erase(it);  // over capacity: hand out an inert handle
      return {};
    }
    counter_names_.push_back(name);
  }
  return {this, it->second};
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  const auto [it, inserted] = gauge_ids_.try_emplace(
      name, static_cast<std::uint32_t>(gauge_names_.size()));
  if (inserted) {
    if (it->second >= max_gauges) {
      gauge_ids_.erase(it);
      return {};
    }
    gauge_names_.push_back(name);
  }
  return {this, it->second};
}

Histogram MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  const auto [it, inserted] = histogram_ids_.try_emplace(
      name, static_cast<std::uint32_t>(histogram_names_.size()));
  if (inserted) {
    if (it->second >= max_histograms) {
      histogram_ids_.erase(it);
      return {};
    }
    histogram_names_.push_back(name);
  }
  return {this, it->second};
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  std::lock_guard lock(mutex_);

  std::vector<std::uint64_t> counters(counter_names_.size(), 0);
  std::vector<HistogramSnapshot> hists(histogram_names_.size());
  for (std::uint32_t c = 0; c < counters.size(); ++c)
    counters[c] = retired_.counters[c];
  for (std::uint32_t h = 0; h < hists.size(); ++h) {
    const Retired::Hist& src = retired_.histograms[h];
    hists[h].buckets = src.buckets;
    hists[h].sum = src.sum;
    hists[h].count = src.count;
    hists[h].max = src.max;
  }
  for (const std::shared_ptr<Slab>& slab : slabs_) {
    for (std::uint32_t c = 0; c < counters.size(); ++c)
      counters[c] += slab->counters[c].load(std::memory_order_relaxed);
    for (std::uint32_t h = 0; h < hists.size(); ++h) {
      const HistSlots& src = slab->histograms[h];
      HistogramSnapshot& dst = hists[h];
      for (std::uint32_t b = 0; b < histogram_buckets; ++b)
        dst.buckets[b] += src.buckets[b].load(std::memory_order_relaxed);
      dst.sum += src.sum.load(std::memory_order_relaxed);
      dst.count += src.count.load(std::memory_order_relaxed);
      dst.max = std::max(dst.max,
                         src.max.load(std::memory_order_relaxed));
    }
  }

  for (std::uint32_t c = 0; c < counters.size(); ++c)
    snap.counters.emplace_back(counter_names_[c], counters[c]);
  for (std::uint32_t g = 0; g < gauge_names_.size(); ++g)
    snap.gauges.emplace_back(gauge_names_[g],
                             gauges_[g].load(std::memory_order_relaxed));
  for (std::uint32_t h = 0; h < hists.size(); ++h)
    snap.histograms.emplace_back(histogram_names_[h], hists[h]);

  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  // Detach live slabs instead of zeroing them under concurrent writers;
  // the generation bump makes each thread re-register a fresh slab on
  // its next record.
  slabs_.clear();
  retired_ = Retired{};
  for (std::uint32_t g = 0; g < max_gauges; ++g)
    gauges_[g].store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_relaxed);
}

MetricsRegistry& registry() {
  static MetricsRegistry instance;
  return instance;
}

// ------------------------------------------------------------ snapshot

std::uint64_t Snapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

std::int64_t Snapshot::gauge(const std::string& name) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return v;
  return 0;
}

void Snapshot::aggregate(const Snapshot& other) {
  // Each series is sorted by name (snapshot() and serialization both
  // preserve that), so a sorted merge keeps the union ordered without
  // intermediate maps.
  const auto merge = [](auto& into, const auto& from, const auto& fold) {
    auto it = into.begin();
    for (const auto& entry : from) {
      while (it != into.end() && it->first < entry.first) ++it;
      if (it != into.end() && it->first == entry.first) {
        fold(it->second, entry.second);
        ++it;
      } else {
        it = std::next(into.insert(it, entry));
      }
    }
  };
  merge(counters, other.counters,
        [](std::uint64_t& a, std::uint64_t b) { a += b; });
  merge(gauges, other.gauges,
        [](std::int64_t& a, std::int64_t b) { a = std::max(a, b); });
  merge(histograms, other.histograms,
        [](HistogramSnapshot& a, const HistogramSnapshot& b) {
          for (std::uint32_t i = 0; i < histogram_buckets; ++i)
            a.buckets[i] += b.buckets[i];
          a.sum += b.sum;
          a.count += b.count;
          a.max = std::max(a.max, b.max);
        });
}

void Snapshot::write_json(std::ostream& os) const {
  os << "{\"xoridx\": " << serve::json_quote(XORIDX_VERSION)
     << ",\n \"metrics\": [";
  bool first = true;
  const auto sep = [&] {
    os << (first ? "\n" : ",\n") << "  ";
    first = false;
  };
  for (const auto& [name, value] : counters) {
    sep();
    os << "{\"name\": " << serve::json_quote(name)
       << ", \"type\": \"counter\", \"value\": " << value << "}";
  }
  for (const auto& [name, value] : gauges) {
    sep();
    os << "{\"name\": " << serve::json_quote(name)
       << ", \"type\": \"gauge\", \"value\": " << value << "}";
  }
  for (const auto& [name, h] : histograms) {
    sep();
    os << "{\"name\": " << serve::json_quote(name)
       << ", \"type\": \"histogram\", \"count\": " << h.count
       << ", \"sum\": " << h.sum << ", \"max\": " << h.max
       << ", \"buckets\": [";
    for (std::uint32_t b = 0; b < histogram_buckets; ++b)
      os << (b == 0 ? "" : ", ") << h.buckets[b];
    os << "]}";
  }
  os << "\n ]}\n";
}

}  // namespace xoridx::obs
