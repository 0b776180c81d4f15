// Observability tests: cross-thread counter/gauge/histogram aggregation,
// snapshot monotonicity under concurrent recording, registry reset and
// over-capacity behaviour, span JSON well-formedness (checked with the
// repo's strict JSON parser), the SearchStats::evaluations reconciliation
// convention, the ProgressReporter surface, and the determinism
// differentials: Explorer CSV and shard report bytes are identical with
// instrumentation recording (metrics + tracing + a live reporter — the
// in-process equivalent of --metrics-out/--trace-out/--progress) and
// with recording disabled (the runtime proxy for XORIDX_OBS=OFF).
//
// Every expectation is valid in both build configurations: recording
// deltas are gated on obs::compiled(), and the obs classes themselves
// (registry, spans, reporter) always compile.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cache/simulate.hpp"
#include "gf2/counting.hpp"
#include "search/bit_select_search.hpp"
#include "search/exhaustive_bit_select.hpp"
#include "search/optimizer.hpp"
#include "search/permutation_search.hpp"
#include "search/subspace_search.hpp"
#include "serve/json.hpp"
#include "trace/generators.hpp"
#include "tracestore/trace_source.hpp"
#include "workloads/workload.hpp"
#include "xoridx/api.hpp"
#include "xoridx/obs.hpp"
#include "xoridx/shard.hpp"

namespace xoridx::obs {
namespace {

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++count;
  return count;
}

/// Capture-and-read helper for FILE*-streaming components (warn lines,
/// progress lines).
class CaptureFile {
 public:
  CaptureFile() : file_(std::tmpfile()) {}
  ~CaptureFile() {
    if (file_ != nullptr) std::fclose(file_);
  }
  [[nodiscard]] std::FILE* get() const { return file_; }
  [[nodiscard]] std::string contents() const {
    std::string out;
    std::rewind(file_);
    char buf[512];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), file_)) > 0)
      out.append(buf, n);
    return out;
  }

 private:
  std::FILE* file_;
};

/// Restore the global runtime switches whatever a test does to them.
struct SwitchGuard {
  ~SwitchGuard() {
    set_metrics_enabled(true);
    set_trace_enabled(false);
  }
};

// --------------------------------------------------- registry semantics

TEST(MetricsRegistry, AggregatesCountersAcrossLiveAndExitedThreads) {
  MetricsRegistry reg;
  const Counter counter = reg.counter("test.adds");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAddsPerThread = 10000;

  // Exited threads: their slabs must fold into the retired totals.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) counter.add(1);
    });
  for (std::thread& t : threads) t.join();
  // Plus the live calling thread.
  counter.add(7);

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("test.adds"), kThreads * kAddsPerThread + 7);
  EXPECT_EQ(snap.counter("test.unregistered"), 0u);

  // Registration is idempotent: a second handle hits the same slot.
  const Counter again = reg.counter("test.adds");
  again.add(1);
  EXPECT_EQ(reg.snapshot().counter("test.adds"),
            kThreads * kAddsPerThread + 8);
}

TEST(MetricsRegistry, GaugesAreSharedLevels) {
  MetricsRegistry reg;
  const Gauge depth = reg.gauge("test.depth");
  depth.add(5);
  std::thread other([&depth] { depth.add(-2); });
  other.join();
  EXPECT_EQ(reg.snapshot().gauge("test.depth"), 3);
  depth.set(-11);
  EXPECT_EQ(reg.snapshot().gauge("test.depth"), -11);
}

TEST(MetricsRegistry, HistogramBucketsByBitWidthAndAggregatesAcrossThreads) {
  MetricsRegistry reg;
  const Histogram hist = reg.histogram("test.latency");
  // bit_width buckets: 0 -> bucket 0, 1 -> 1, {2,3} -> 2, 1000 -> 10.
  hist.record(0);
  hist.record(1);
  std::thread other([&hist] {
    hist.record(2);
    hist.record(3);
    hist.record(1000);
  });
  other.join();

  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& h = snap.histograms.front().second;
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 0u + 1 + 2 + 3 + 1000);
  EXPECT_EQ(h.max, 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 5.0);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[10], 1u);
}

TEST(MetricsRegistry, SnapshotsAreMonotonicUnderConcurrentRecording) {
  MetricsRegistry reg;
  const Counter counter = reg.counter("test.mono");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) counter.add(1);
  });

  std::uint64_t previous = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t now = reg.snapshot().counter("test.mono");
    EXPECT_GE(now, previous);
    previous = now;
  }
  stop.store(true);
  writer.join();
  EXPECT_GE(reg.snapshot().counter("test.mono"), previous);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry reg;
  const Counter counter = reg.counter("test.reset");
  const Gauge gauge = reg.gauge("test.reset_gauge");
  const Histogram hist = reg.histogram("test.reset_hist");
  counter.add(3);
  gauge.add(4);
  hist.record(9);
  reg.reset();

  Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("test.reset"), 0u);
  EXPECT_EQ(snap.gauge("test.reset_gauge"), 0);
  ASSERT_EQ(snap.histograms.size(), 1u);  // name survives the reset
  EXPECT_EQ(snap.histograms.front().second.count, 0u);

  // Old handles keep working against the post-reset slabs.
  counter.add(2);
  EXPECT_EQ(reg.snapshot().counter("test.reset"), 2u);
}

TEST(MetricsRegistry, OverCapacityRegistrationYieldsInertHandles) {
  MetricsRegistry reg;
  std::vector<Gauge> gauges;
  for (std::uint32_t i = 0; i <= max_gauges; ++i)
    gauges.push_back(reg.gauge("test.g" + std::to_string(i)));
  gauges.back().add(42);  // over capacity: dropped, never crashes
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.gauges.size(), max_gauges);
  EXPECT_EQ(snap.gauge("test.g" + std::to_string(max_gauges)), 0);
}

TEST(MetricsRegistry, SnapshotJsonIsWellFormed) {
  MetricsRegistry reg;
  const std::string quoted_name = "test.a\"quoted\\name";
  reg.counter(quoted_name).add(1);
  reg.gauge("test.gauge").add(-3);
  reg.histogram("test.hist").record(17);
  std::ostringstream os;
  reg.snapshot().write_json(os);
  const std::string json = os.str();
  const api::Result<serve::JsonValue> doc = serve::parse_json(json);
  ASSERT_TRUE(doc.ok()) << doc.status().to_string() << "\n" << json;
  const serve::JsonValue* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(std::any_of(
      metrics->items().begin(), metrics->items().end(),
      [&](const serve::JsonValue& m) {
        return m.find("name")->as_string() == quoted_name;
      }))
      << json;
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"xoridx\""), std::string::npos);
}

// ------------------------------------------------------------- spans

TEST(Span, ChromeTraceJsonIsWellFormedAndEscaped) {
  const std::string detail =
      "quote \" backslash \\ newline \n return \r tab \t control \x01 done";
  SwitchGuard guard;
  clear_spans();
  set_trace_enabled(true);
  {
    Span outer("test", "outer");
    outer.detail(detail);
    std::thread worker([] { Span inner("test", "worker_span"); });
    worker.join();
    { Span sibling("test", "sibling"); }
  }
  set_trace_enabled(false);

  std::ostringstream os;
  write_chrome_trace(os);
  const std::string json = os.str();
  const api::Result<serve::JsonValue> doc = serve::parse_json(json);
  ASSERT_TRUE(doc.ok()) << doc.status().to_string() << "\n" << json;
  const serve::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  const auto outer = std::find_if(
      events->items().begin(), events->items().end(),
      [](const serve::JsonValue& e) {
        return e.find("name")->as_string() == "outer";
      });
  ASSERT_NE(outer, events->items().end()) << json;
  ASSERT_NE(outer->find("args"), nullptr) << json;
  EXPECT_EQ(outer->find("args")->find("detail")->as_string(), detail);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // One complete event per span, on two distinct tids.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""), 3u);
  EXPECT_NE(json.find("\"worker_span\""), std::string::npos);
  EXPECT_EQ(spans_dropped(), 0u);
  clear_spans();
}

TEST(Span, RecordsNothingWhenTracingDisabled) {
  SwitchGuard guard;
  clear_spans();
  set_trace_enabled(false);
  { Span ignored("test", "ignored"); }
  std::ostringstream os;
  write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_TRUE(serve::parse_json(json).ok()) << json;
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""), 0u);
}

// ------------------------------------- evaluations convention reconciled

TEST(Instrumentation, SearchEvaluationsCounterMatchesSearchStats) {
  SwitchGuard guard;
  set_metrics_enabled(true);
  const trace::Trace t = trace::random_trace(0, 300, 4, 5000, 21);
  const cache::CacheGeometry geom(1024, 4);
  const profile::ConflictProfile profile =
      profile::build_conflict_profile(t, geom, 12);

  const std::uint64_t before =
      registry().snapshot().counter("search.evaluations");

  std::uint64_t stats_total = 0;
  stats_total +=
      search::search_permutation(profile, geom.index_bits()).stats.evaluations;
  search::SearchOptions limited;
  limited.max_fan_in = 2;
  stats_total += search::search_permutation(profile, geom.index_bits(), limited)
                     .stats.evaluations;
  stats_total +=
      search::search_general_xor(profile, geom.index_bits()).stats.evaluations;
  stats_total +=
      search::search_bit_select(profile, geom.index_bits()).stats.evaluations;

  const std::uint64_t after =
      registry().snapshot().counter("search.evaluations");
  EXPECT_GT(stats_total, 0u);
  // The bulk-counting convention: the obs counter advances by exactly the
  // SearchStats::evaluations each entry point reports — in an OBS=OFF
  // build it does not advance at all.
  EXPECT_EQ(after - before, compiled() ? stats_total : 0u);
}

TEST(Instrumentation, EstimatorAbsErrorRecordedOncePerOptimizeCall) {
  SwitchGuard guard;
  set_metrics_enabled(true);
  const trace::Trace t = trace::random_trace(0, 300, 4, 5000, 23);
  const cache::CacheGeometry geom(256, 4);
  search::OptimizeOptions options;
  options.hashed_bits = 12;
  const profile::ConflictProfile profile =
      profile::build_conflict_profile(t, geom, options.hashed_bits);
  const auto abs_error = [] {
    for (const auto& [name, hist] : registry().snapshot().histograms)
      if (name == "estimator.abs_error") return hist;
    return HistogramSnapshot{};
  };
  const auto expected = [](const search::OptimizationResult& r) {
    return r.estimated_misses > r.optimized_misses
               ? r.estimated_misses - r.optimized_misses
               : r.optimized_misses - r.estimated_misses;
  };

  const HistogramSnapshot h0 = abs_error();
  const search::OptimizationResult in_memory =
      search::optimize_index_with_profile(t, geom, profile, options);
  const HistogramSnapshot h1 = abs_error();
  tracestore::MemorySource source(t);
  const search::OptimizationResult streamed =
      search::optimize_index_with_profile(source, geom, profile, options);
  const HistogramSnapshot h2 = abs_error();
  if (compiled()) {
    EXPECT_EQ(h1.count - h0.count, 1u);
    EXPECT_EQ(h1.sum - h0.sum, expected(in_memory));
    EXPECT_EQ(h2.count - h1.count, 1u);
    EXPECT_EQ(h2.sum - h1.sum, expected(streamed));
  } else {
    EXPECT_EQ(h2.count, 0u);
  }
}

TEST(Instrumentation, SimulateCountersCountPassesAndSimulatedAccesses) {
  SwitchGuard guard;
  set_metrics_enabled(true);
  const trace::Trace t = trace::random_trace(0, 300, 4, 4000, 22);
  const cache::CacheGeometry geom(256, 4);
  const auto conventional =
      hash::XorFunction::conventional(12, geom.index_bits());
  const auto counters = [] {
    const Snapshot snap = registry().snapshot();
    return std::pair{snap.counter("simulate.passes"),
                     snap.counter("simulate.accesses")};
  };

  const auto [passes0, accesses0] = counters();
  (void)cache::simulate_direct_mapped(t, geom, conventional);
  (void)cache::simulate_fully_associative(t, geom);
  (void)cache::classify_misses(t, geom, conventional);
  const auto [passes1, accesses1] = counters();
  EXPECT_EQ(passes1 - passes0, compiled() ? 3u : 0u);
  EXPECT_EQ(accesses1 - accesses0, compiled() ? 3 * t.size() : 0u);

  // The exhaustive sweep adds one pass per class of candidates that miss
  // alike (same varying bits, same number of constant bits), but only the
  // accesses it simulated before each reached the running best, over the
  // blocks left once back-to-back repeats are dropped.
  std::vector<std::uint64_t> blocks;
  for (const trace::Access& a : t.accesses()) {
    const std::uint64_t block = a.addr >> geom.offset_bits();
    if (blocks.empty() || blocks.back() != block) blocks.push_back(block);
  }
  const int n = 12;
  const int m = geom.index_bits();
  int constant = 0;
  for (int bit = 0; bit < n; ++bit)
    constant += std::all_of(blocks.begin(), blocks.end(), [&](auto b) {
      return ((b ^ blocks.front()) >> bit & 1u) == 0;
    });
  std::uint64_t classes = 0;
  for (int k = 0; k <= std::min(m, constant); ++k)
    if (m - k <= n - constant)
      classes += gf2::binomial_exact(n - constant, m - k);

  const search::ExhaustiveBitSelectResult best =
      search::optimal_bit_select(t, geom, n);
  const auto [passes2, accesses2] = counters();
  EXPECT_EQ(best.candidates, gf2::binomial_exact(n, m));
  EXPECT_LT(classes, best.candidates);  // the footprint leaves bits constant
  if (compiled()) {
    EXPECT_EQ(passes2 - passes1, classes);
    EXPECT_GE(accesses2 - accesses1, blocks.size());
    EXPECT_LT(accesses2 - accesses1, classes * blocks.size());
  } else {
    EXPECT_EQ(passes2, passes1);
    EXPECT_EQ(accesses2, accesses1);
  }
}

// --------------------------------------------------- progress reporter

TEST(ProgressReporter, WarnsIndependentlyOfRegistryState) {
  SwitchGuard guard;
  set_metrics_enabled(false);  // warn() must not care
  CaptureFile capture;
  ProgressReporter reporter({.done_counter = "test.none",
                             .label = "unit",
                             .stream = capture.get()});
  reporter.warn("something degraded");
  const std::string out = capture.contents();
  EXPECT_NE(out.find("[unit] warning: something degraded"),
            std::string::npos);
}

TEST(ProgressReporter, EmitsFinalLineWithTotalsAndCacheRate) {
  if (!compiled()) GTEST_SKIP() << "no counters to sample under OBS=OFF";
  SwitchGuard guard;
  set_metrics_enabled(true);
  registry().counter("obs_test.progress.done").add(5);
  CaptureFile capture;
  ProgressReporter reporter({.done_counter = "obs_test.progress.done",
                             .total = 5,
                             .label = "unit",
                             .interval_s = 0.05,
                             .stream = capture.get()});
  reporter.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  reporter.stop();
  const std::string out = capture.contents();
  EXPECT_NE(out.find("[unit] 5/5 cells (100.0%)"), std::string::npos) << out;
  EXPECT_NE(out.find("done in"), std::string::npos) << out;
}

// ------------------------------------------ shard failing-cell counters

class ExplodingSource final : public tracestore::TraceSource {
 public:
  std::size_t next_batch(std::span<trace::Access>) override {
    throw std::runtime_error("simulated remote fetch failure");
  }
  void reset() override {}
  [[nodiscard]] std::uint64_t size() const override { return 64; }
};

api::ExplorationRequest exploding_request() {
  api::ExplorationRequest request;
  tracestore::TraceId fake_id;
  fake_id.lo = 0xdead;
  fake_id.hi = 0xbeef;
  request.traces.push_back(api::TraceRef::source(
      "exploding", [] { return std::make_unique<ExplodingSource>(); },
      fake_id));
  request.geometries = {api::GeometrySpec(1024, 4)};
  request.strategies = api::parse_strategies("base,perm:2").value();
  return request;
}

TEST(ShardRunner, FailingCellsAreCountedAndNameTheirTrace) {
  SwitchGuard guard;
  set_metrics_enabled(true);
  const api::ExplorationRequest request = exploding_request();
  const auto plan = shard::ShardPlan::partition(request, 1);
  ASSERT_TRUE(plan.ok());

  const Snapshot before = registry().snapshot();
  const auto report = shard::run_shard(request, *plan, 1);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report->error_count(), 2u);
  for (const shard::Cell& cell : report->cells) {
    ASSERT_FALSE(cell.ok());
    EXPECT_EQ(cell.error().trace, "exploding");
  }

  const Snapshot after = registry().snapshot();
  const std::uint64_t done =
      after.counter("shard.cells_done") - before.counter("shard.cells_done");
  const std::uint64_t errors = after.counter("shard.cell_errors") -
                               before.counter("shard.cell_errors");
  EXPECT_EQ(done, compiled() ? 2u : 0u);
  EXPECT_EQ(errors, compiled() ? 2u : 0u);
}

// -------------------------------------------- determinism differentials

api::ExplorationRequest table2_small_request() {
  api::ExplorationRequest request;
  request.hashed_bits = 16;
  request.num_threads = 1;
  for (const std::string& name :
       workloads::workload_names(workloads::Suite::table2)) {
    workloads::Workload w =
        workloads::make_workload(name, workloads::Scale::small);
    request.traces.push_back(api::TraceRef::memory(w.name, std::move(w.data)));
  }
  request.geometries = {api::GeometrySpec(1024, 4), api::GeometrySpec(4096, 4)};
  request.strategies = api::parse_strategies("base,perm:2,perm").value();
  return request;
}

std::string explore_csv(const api::ExplorationRequest& base) {
  api::ExplorationRequest request = base;
  std::ostringstream os;
  api::CsvSink sink(os);
  request.sink = &sink;
  const auto report = api::Explorer::explore(request);
  EXPECT_TRUE(report.ok()) << report.status().to_string();
  return os.str();
}

TEST(Differential, ExplorerCsvBytesIdenticalWithObsOnAndOff) {
  SwitchGuard guard;
  const api::ExplorationRequest request = table2_small_request();

  // Arm 1: everything on — metrics recording, span tracing, and a live
  // sampling reporter; then actually produce the --metrics-out /
  // --trace-out documents so their serialization runs too.
  set_metrics_enabled(true);
  set_trace_enabled(true);
  clear_spans();
  CaptureFile progress;
  ProgressReporter reporter({.done_counter = "engine.jobs_completed",
                             .label = "unit",
                             .interval_s = 0.05,
                             .stream = progress.get()});
  reporter.start();
  const std::string csv_on = explore_csv(request);
  reporter.stop();
  set_trace_enabled(false);
  std::ostringstream metrics_json, trace_json;
  registry().snapshot().write_json(metrics_json);
  write_chrome_trace(trace_json);
  EXPECT_TRUE(serve::parse_json(metrics_json.str()).ok());
  EXPECT_TRUE(serve::parse_json(trace_json.str()).ok());
  clear_spans();

  // Arm 2: recording disabled — the runtime stand-in for XORIDX_OBS=OFF.
  set_metrics_enabled(false);
  const std::string csv_off = explore_csv(request);

  EXPECT_GT(csv_on.size(), 0u);
  EXPECT_EQ(csv_on, csv_off);
}

TEST(Differential, ShardReportBytesIdenticalWithObsOnAndOff) {
  SwitchGuard guard;
  api::ExplorationRequest request;
  request.traces.push_back(
      api::TraceRef::memory("stride", trace::stride_trace(0, 4096, 300)));
  request.traces.push_back(api::TraceRef::memory(
      "random", trace::random_trace(0, 400, 4, 6000, 33)));
  request.geometries = {api::GeometrySpec(1024, 4), api::GeometrySpec(2048, 4)};
  request.strategies = api::parse_strategies("base,perm:2").value();

  const auto save_bytes = [&request](const std::string& suffix) {
    auto report = shard::run_campaign(request);
    EXPECT_TRUE(report.ok()) << report.status().to_string();
    // The v2 obs section is telemetry (wall time, counter totals) and
    // legitimately differs between configurations; the determinism
    // contract covers the result cells, so compare with it stripped.
    report->obs.reset();
    const std::string path =
        (std::filesystem::temp_directory_path() / ("xoridx_obs_" + suffix))
            .string();
    EXPECT_TRUE(shard::save_report(*report, path).ok());
    std::ifstream is(path, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>()};
  };

  set_metrics_enabled(true);
  set_trace_enabled(true);
  clear_spans();
  const std::string bytes_on = save_bytes("on.rpt");
  set_trace_enabled(false);
  clear_spans();

  set_metrics_enabled(false);
  const std::string bytes_off = save_bytes("off.rpt");

  EXPECT_GT(bytes_on.size(), 0u);
  EXPECT_EQ(bytes_on, bytes_off);
}

// ------------------------------------------- fleet snapshot aggregation

TEST(SnapshotAggregate, CountersSumGaugesMaxHistogramsAdd) {
  Snapshot a;
  Snapshot b;
  a.counters = {{"alpha", 2}, {"common", 10}};
  b.counters = {{"beta", 5}, {"common", 7}};
  a.gauges = {{"depth", 3}};
  b.gauges = {{"depth", -9}, {"lag", 4}};
  HistogramSnapshot ha;
  ha.count = 2;
  ha.sum = 9;
  ha.max = 8;
  ha.buckets[1] = 1;
  ha.buckets[4] = 1;
  HistogramSnapshot hb;
  hb.count = 1;
  hb.sum = 1024;
  hb.max = 1024;
  hb.buckets[11] = 1;
  a.histograms = {{"lat", ha}};
  b.histograms = {{"lat", hb}, {"other", hb}};

  a.aggregate(b);

  EXPECT_EQ(a.counter("alpha"), 2u);
  EXPECT_EQ(a.counter("beta"), 5u);
  EXPECT_EQ(a.counter("common"), 17u);
  EXPECT_EQ(a.gauge("depth"), 3);  // max, not sum: levels don't add
  EXPECT_EQ(a.gauge("lag"), 4);
  ASSERT_EQ(a.histograms.size(), 2u);
  EXPECT_EQ(a.histograms[0].first, "lat");
  EXPECT_EQ(a.histograms[0].second.count, 3u);
  EXPECT_EQ(a.histograms[0].second.sum, 1033u);
  EXPECT_EQ(a.histograms[0].second.max, 1024u);
  EXPECT_EQ(a.histograms[0].second.buckets[1], 1u);
  EXPECT_EQ(a.histograms[0].second.buckets[4], 1u);
  EXPECT_EQ(a.histograms[0].second.buckets[11], 1u);
  EXPECT_EQ(a.histograms[1].first, "other");
  EXPECT_EQ(a.histograms[1].second, hb);
  // Name ordering survives the union — snapshots stay deterministic.
  const auto by_name = [](const auto& x, const auto& y) {
    return x.first < y.first;
  };
  EXPECT_TRUE(
      std::is_sorted(a.counters.begin(), a.counters.end(), by_name));
  EXPECT_TRUE(std::is_sorted(a.gauges.begin(), a.gauges.end(), by_name));

  // Folding in an empty snapshot changes nothing.
  const Snapshot before = a;
  a.aggregate(Snapshot{});
  EXPECT_EQ(a, before);
}

// ------------------------------------------------- OpenMetrics exporter

TEST(OpenMetrics, ExpositionFormatIsFrozen) {
  // This shape is load-bearing beyond the tests: it is what the future
  // `xoridx serve` /metrics endpoint returns, so treat any diff here as
  // a breaking change, not a formatting nit.
  Snapshot snap;
  snap.counters = {{"shard.cells_done", 40}};
  snap.gauges = {{"queue depth", -3}};
  HistogramSnapshot h;
  h.count = 3;
  h.sum = 9;
  h.max = 8;
  h.buckets[0] = 1;  // one zero-valued sample
  h.buckets[1] = 1;  // one sample equal to 1
  h.buckets[4] = 1;  // one sample in [8, 15]
  snap.histograms = {{"eval.ns", h}};

  std::ostringstream os;
  snap.write_openmetrics(os);
  const std::string text = os.str();

  // Dots and spaces sanitize to '_' under the xoridx_ namespace; the
  // counter suffix, cumulative log2 buckets, +Inf == count, _sum/_count
  // and the trailing # EOF are all part of the frozen contract.
  EXPECT_NE(text.find("# TYPE xoridx_shard_cells_done counter\n"
                      "xoridx_shard_cells_done_total 40\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE xoridx_queue_depth gauge\n"
                      "xoridx_queue_depth -3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE xoridx_eval_ns histogram\n"
                      "xoridx_eval_ns_bucket{le=\"0\"} 1\n"
                      "xoridx_eval_ns_bucket{le=\"1\"} 2\n"
                      "xoridx_eval_ns_bucket{le=\"3\"} 2\n"
                      "xoridx_eval_ns_bucket{le=\"7\"} 2\n"
                      "xoridx_eval_ns_bucket{le=\"15\"} 3\n"),
            std::string::npos)
      << text;
  // The widest finite bound is 2^30 - 1; the tail bucket is +Inf and by
  // OpenMetrics law equals the sample count.
  EXPECT_NE(text.find("xoridx_eval_ns_bucket{le=\"1073741823\"} 3\n"
                      "xoridx_eval_ns_bucket{le=\"+Inf\"} 3\n"
                      "xoridx_eval_ns_sum 9\n"
                      "xoridx_eval_ns_count 3\n"),
            std::string::npos)
      << text;
  EXPECT_TRUE(text.ends_with("# EOF\n")) << text;
  // 31 finite bucket bounds, no more, no fewer.
  EXPECT_EQ(count_occurrences(text, "_bucket{le="), 32u);
  // Strict-parser sanity: every line is a comment or `name[labels] value`.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(line[0])) ||
                line[0] == '_')
        << line;
  }
}

TEST(OpenMetrics, EmptySnapshotIsStillAValidDocument) {
  std::ostringstream os;
  Snapshot{}.write_openmetrics(os);
  EXPECT_EQ(os.str(), "# EOF\n");
}

// ----------------------------------------------------- trace stitching

TEST(TraceMerge, RemapsPidsAndSynthesizesProcessNames) {
  const auto temp = [](const char* name) {
    return (std::filesystem::temp_directory_path() / name).string();
  };
  const std::string a_path = temp("xoridx_trace_a.json");
  const std::string b_path = temp("xoridx_trace_b.json");
  {
    // Input A: our own writer's shape — carries a pid and names itself.
    std::ofstream os(a_path);
    os << "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n"
          "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 4242, "
          "\"args\": {\"name\": \"shard 1/2\"}},\n"
          "  {\"name\": \"slice\", \"cat\": \"shard\", \"ph\": \"X\", "
          "\"ts\": 10, \"dur\": 5, \"pid\": 4242, \"tid\": 1}\n ]}\n";
  }
  {
    // Input B: a foreign writer — no pid, no metadata, a tricky string.
    std::ofstream os(b_path);
    os << "{\"traceEvents\":[{\"name\":\"b \\\"quoted\\\" {brace\","
          "\"ph\":\"X\",\"ts\":1,\"dur\":2,\"tid\":7}]}";
  }

  std::ostringstream os;
  const api::Status merged_status =
      merge_chrome_traces({a_path, b_path}, os);
  ASSERT_TRUE(merged_status.ok()) << merged_status.to_string();
  const std::string merged = os.str();

  EXPECT_TRUE(serve::parse_json(merged).ok()) << merged;
  // A's events land on track 1, B's on track 2; original pids are gone.
  EXPECT_EQ(count_occurrences(merged, "\"pid\":1"), 2u) << merged;
  EXPECT_EQ(count_occurrences(merged, "\"pid\":2"), 2u) << merged;
  EXPECT_EQ(count_occurrences(merged, "4242"), 0u) << merged;
  // A keeps its own track name; B gets one synthesized from its file.
  EXPECT_EQ(count_occurrences(merged, "process_name"), 2u) << merged;
  EXPECT_NE(merged.find("shard 1/2"), std::string::npos) << merged;
  EXPECT_NE(merged.find("xoridx_trace_b.json"), std::string::npos)
      << merged;
  // B's events and strings survive intact.
  EXPECT_NE(merged.find("b \\\"quoted\\\" {brace"), std::string::npos)
      << merged;
}

TEST(TraceMerge, ErrorsNameTheOffendingFile) {
  std::ostringstream os;
  const api::Status empty = merge_chrome_traces({}, os);
  EXPECT_EQ(empty.code(), api::StatusCode::invalid_argument);

  const api::Status missing =
      merge_chrome_traces({"/nonexistent/xoridx_trace.json"}, os);
  EXPECT_EQ(missing.code(), api::StatusCode::not_found);
  EXPECT_NE(missing.message().find("/nonexistent/xoridx_trace.json"),
            std::string::npos);

  const std::string bad_path =
      (std::filesystem::temp_directory_path() / "xoridx_trace_bad.json")
          .string();
  {
    std::ofstream bad(bad_path);
    bad << "{\"notTraceEvents\": []}";
  }
  const api::Status malformed = merge_chrome_traces({bad_path}, os);
  EXPECT_EQ(malformed.code(), api::StatusCode::io_error);
  EXPECT_NE(malformed.message().find("traceEvents"), std::string::npos);
  EXPECT_NE(malformed.message().find(bad_path), std::string::npos);

  // Malformed JSON is rejected with the parser's byte offset, never passed
  // through: an invalid literal with trailing garbage, an event missing
  // its ':', and a trace cut off mid-event.
  for (const char* text :
       {"{\"traceEvents\": [{\"name\": tru, \"ph\": \"X\"}]} garbage",
        "{\"traceEvents\": [{\"a\" \"b\"}]}",
        "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n"
        "  {\"name\": \"slice\", \"ph\": \"X\", \"ts\": 1"}) {
    {
      std::ofstream bad(bad_path);
      bad << text;
    }
    const api::Status rejected = merge_chrome_traces({bad_path}, os);
    EXPECT_EQ(rejected.code(), api::StatusCode::io_error) << text;
    EXPECT_NE(rejected.message().find("at byte"), std::string::npos)
        << rejected.message();
    EXPECT_NE(rejected.message().find(bad_path), std::string::npos)
        << rejected.message();
  }
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorderDeathTest, CrashDumpNamesSignalAndRecentSpans) {
  // The child re-raises with the default disposition, so the parent sees
  // the original SIGABRT — and the dump the handler wrote on the way out.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string crash_path =
      (std::filesystem::temp_directory_path() / "xoridx_flight.crash")
          .string();
  std::filesystem::remove(crash_path);
  EXPECT_EXIT(
      {
        install_flight_recorder(crash_path);
        flight_record("test", "explicit_entry", 123, 456);
        { Span span("test", "span_via_raii"); }  // spans feed the ring too
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");

  std::ifstream is(crash_path);
  ASSERT_TRUE(is.good()) << "no crash dump at " << crash_path;
  const std::string dump{std::istreambuf_iterator<char>(is),
                         std::istreambuf_iterator<char>()};
  EXPECT_NE(dump.find("signal: SIGABRT"), std::string::npos) << dump;
  EXPECT_NE(dump.find("test/explicit_entry start=123 dur=456"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("test/span_via_raii"), std::string::npos) << dump;
  EXPECT_NE(dump.find("end of crash dump"), std::string::npos) << dump;
}

TEST(FlightRecorder, DisarmedRecorderIsInertAndUninstallIsIdempotent) {
  EXPECT_FALSE(flight_recorder_armed());
  flight_record("test", "dropped", 1, 2);  // no-op when disarmed
  uninstall_flight_recorder();             // no-op when never installed
  EXPECT_FALSE(flight_recorder_armed());
}

// ------------------------------------------------------ stall watchdog

TEST(ProgressReporter, StallWatchdogNamesTheStalledActivity) {
  if (!compiled()) GTEST_SKIP() << "stall detection samples real counters";
  SwitchGuard guard;
  set_metrics_enabled(true);
  registry().counter("obs_test.stall.done").add(1);
  CaptureFile capture;
  ProgressReporter reporter({.done_counter = "obs_test.stall.done",
                             .total = 10,
                             .label = "unit",
                             .interval_s = 0.03,
                             .stall_warn_s = 0.12,
                             .stream = capture.get()});
  reporter.set_activity("cell 3: trace 'slow' C=4096,a=8 perm:2");
  reporter.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  reporter.stop();
  const std::string out = capture.contents();
  EXPECT_NE(out.find("no obs_test.stall.done progress for"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("stalled on cell 3: trace 'slow'"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace xoridx::obs
