// Metrics registry: named counters, gauges and fixed-bucket histograms
// with lock-free hot paths.
//
// Design: metric *names* resolve to small integer ids once (under a
// mutex, typically at a function-local static init); recording goes
// through a handle that indexes a per-thread slab of relaxed atomics —
// no locks, no false sharing with other threads, no allocation. A
// snapshot walks every slab (live threads plus the folded totals of
// exited ones) under the registry mutex and aggregates; readers never
// block writers. Counters are monotonic by construction, so a snapshot
// is a consistent-enough view: each value is at least what it was when
// the snapshot started.
//
// Instrumentation never feeds back into computation: the engine's
// chosen functions, estimates and report bytes are identical whether
// metrics are recorded, runtime-disabled (set_metrics_enabled(false))
// or compiled out (XORIDX_OBS=OFF). The macros at the bottom are the
// only thing the CMake option strips; the classes themselves always
// compile so tooling (ProgressReporter, snapshot writers) links in both
// configurations.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#ifndef XORIDX_OBS_ENABLED
#define XORIDX_OBS_ENABLED 1
#endif

namespace xoridx::obs {

/// Capacity limits of one registry. Registration past a limit yields an
/// inert handle (records are dropped) instead of failing — metric
/// registration must never take down the pipeline it observes.
inline constexpr std::uint32_t max_counters = 128;
inline constexpr std::uint32_t max_gauges = 32;
inline constexpr std::uint32_t max_histograms = 32;
inline constexpr std::uint32_t histogram_buckets = 32;
inline constexpr std::uint32_t invalid_metric_id = ~std::uint32_t{0};

/// Monotonic wall time in nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Master runtime switch for metric recording (default on). Disabling
/// reduces every record to a load + branch — the closest a compiled-in
/// build gets to XORIDX_OBS=OFF, and what bench/obs_overhead measures
/// against.
void set_metrics_enabled(bool enabled) noexcept;
[[nodiscard]] bool metrics_enabled() noexcept;

/// True when the library was compiled with instrumentation points
/// (XORIDX_OBS=ON); progress totals and counters stay zero otherwise.
[[nodiscard]] constexpr bool compiled() noexcept {
  return XORIDX_OBS_ENABLED != 0;
}

class MetricsRegistry;

/// Aggregated histogram state. Buckets are log2-sized: bucket b counts
/// values v with bit_width(v) == b (bucket 0 counts v == 0, the last
/// bucket absorbs everything wider) — nanosecond latencies land in
/// ~1 ns .. ~2 s with no configuration.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, histogram_buckets> buckets{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Point-in-time aggregation of a registry, ordered by name (the JSON
/// output is deterministic given deterministic recording).
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Value of a counter, 0 when absent.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  /// Value of a gauge, 0 when absent.
  [[nodiscard]] std::int64_t gauge(const std::string& name) const;

  /// One JSON document: {"xoridx": <version>, "metrics": [...]}.
  void write_json(std::ostream& os) const;

  /// OpenMetrics / Prometheus text exposition: counters as `<name>_total`,
  /// gauges plain, log2 histograms as cumulative `_bucket{le="..."}` series
  /// ending in `+Inf` plus `_sum`/`_count`, terminated by `# EOF`. Metric
  /// names are prefixed `xoridx_` with non-alphanumerics mapped to `_`.
  /// This document's shape is frozen: it is what the future `xoridx serve`
  /// daemon's /metrics endpoint returns. Implemented in obs/export.cpp.
  void write_openmetrics(std::ostream& os) const;

  /// Fold another snapshot into this one with fleet semantics: counters
  /// and histogram buckets/sums/counts are added, gauges and histogram
  /// maxima take the maximum. Metric name sets are unioned; ordering by
  /// name is preserved. This is how merge_reports builds the fleet
  /// snapshot out of per-shard snapshots.
  void aggregate(const Snapshot& other);

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Handle to a registered counter; value semantics, safe to copy into
/// function-local statics. add() is lock-free (per-thread slab slot).
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n = 1) const noexcept;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, std::uint32_t id)
      : registry_(registry), id_(id) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t id_ = invalid_metric_id;
};

/// Handle to a registered gauge (a signed level, e.g. queue depth).
/// Gauges are shared atomics, not per-thread: levels need cross-thread
/// +/- to mean anything.
class Gauge {
 public:
  Gauge() = default;
  void add(std::int64_t delta) const noexcept;
  void set(std::int64_t value) const noexcept;

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* registry, std::uint32_t id)
      : registry_(registry), id_(id) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t id_ = invalid_metric_id;
};

/// Handle to a registered histogram. record() is lock-free.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t value) const noexcept;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* registry, std::uint32_t id)
      : registry_(registry), id_(id) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t id_ = invalid_metric_id;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or look up) a metric by name. Idempotent: the same name
  /// always yields a handle to the same slot. Thread-safe.
  [[nodiscard]] Counter counter(const std::string& name);
  [[nodiscard]] Gauge gauge(const std::string& name);
  [[nodiscard]] Histogram histogram(const std::string& name);

  /// Aggregate every slab (live and retired) into one ordered snapshot.
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every registered metric (names and ids stay registered).
  /// Test/bench convenience; concurrent recording during a reset may
  /// survive it, which monotonic consumers tolerate.
  void reset();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;
  friend struct SlabHolder;

  struct HistSlots {
    std::array<std::atomic<std::uint64_t>, histogram_buckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> max{0};
  };

  /// Fixed-capacity per-thread storage. Capacity is fixed so slabs never
  /// reallocate while another thread snapshots them.
  struct Slab {
    std::array<std::atomic<std::uint64_t>, max_counters> counters{};
    std::array<HistSlots, max_histograms> histograms{};
  };

  /// Folded totals of exited threads (registry mutex guards access).
  struct Retired {
    std::array<std::uint64_t, max_counters> counters{};
    struct Hist {
      std::array<std::uint64_t, histogram_buckets> buckets{};
      std::uint64_t sum = 0;
      std::uint64_t count = 0;
      std::uint64_t max = 0;
    };
    std::array<Hist, max_histograms> histograms{};
  };

  [[nodiscard]] Slab& local_slab();
  void retire(const std::shared_ptr<Slab>& slab);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::uint32_t> counter_ids_;
  std::unordered_map<std::string, std::uint32_t> gauge_ids_;
  std::unordered_map<std::string, std::uint32_t> histogram_ids_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::vector<std::shared_ptr<Slab>> slabs_;  ///< live threads
  Retired retired_;
  std::array<std::atomic<std::int64_t>, max_gauges> gauges_{};
  std::atomic<std::uint64_t> generation_{0};  ///< bumped by reset()
  /// Liveness sentinel: thread-exit hooks hold a weak_ptr and skip the
  /// retire fold when the registry died first (test-scope registries).
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

/// The process-wide registry every library instrumentation point feeds.
[[nodiscard]] MetricsRegistry& registry();

}  // namespace xoridx::obs

// ------------------------------------------------- instrumentation macros
//
// The only obs surface library code touches on hot paths. XORIDX_OBS=OFF
// compiles every use to nothing; the handle resolution cost (a guarded
// function-local static) is paid once per site, recording is a relaxed
// per-thread atomic op behind one enabled-flag branch.

#if XORIDX_OBS_ENABLED

#define XORIDX_OBS_COUNT(name, n)                                \
  do {                                                           \
    static const ::xoridx::obs::Counter xoridx_obs_counter_ =    \
        ::xoridx::obs::registry().counter(name);                 \
    xoridx_obs_counter_.add(n);                                  \
  } while (0)

#define XORIDX_OBS_GAUGE_ADD(name, delta)                        \
  do {                                                           \
    static const ::xoridx::obs::Gauge xoridx_obs_gauge_ =        \
        ::xoridx::obs::registry().gauge(name);                   \
    xoridx_obs_gauge_.add(delta);                                \
  } while (0)

#define XORIDX_OBS_HIST(name, value)                             \
  do {                                                           \
    static const ::xoridx::obs::Histogram xoridx_obs_hist_ =     \
        ::xoridx::obs::registry().histogram(name);               \
    xoridx_obs_hist_.record(value);                              \
  } while (0)

#else

// The amount stays an unevaluated operand, so a local computed only to
// be counted does not warn as unused. A histogram's value may name
// variables that exist only when obs is on, so it is dropped whole.
#define XORIDX_OBS_COUNT(name, n) ((void)sizeof(n))
#define XORIDX_OBS_GAUGE_ADD(name, delta) ((void)sizeof(delta))
#define XORIDX_OBS_HIST(name, value) ((void)0)

#endif
