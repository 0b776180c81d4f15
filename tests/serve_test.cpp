// Serving-layer tests: task groups sharing the engine's pool, campaign
// cancellation, ProfileCache LRU byte budgets (including the
// many-threads single-build guarantee), the Service (admission, memo,
// per-cell streaming byte-identity, cancellation freeing slots), the
// NDJSON protocol, and the TCP server — plus a death-style test that
// SIGTERM drains the daemon instead of killing it.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/profile_cache.hpp"
#include "engine/report.hpp"
#include "engine/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "trace/generators.hpp"
#include "workloads/workload.hpp"
#include "xoridx/api.hpp"
#include "xoridx/serve.hpp"
#include "xoridx/shard.hpp"

namespace xoridx {
namespace {

using namespace std::chrono_literals;
using cache::CacheGeometry;

// ------------------------------------------------------------ TaskGroup

// Each group waits for its own tasks only: six groups of chained nested
// runs finish on a pool whose one worker another group holds blocked.
TEST(TaskGroupTest, ManyGroupsShareOnePool) {
  engine::ThreadPool pool(4);
  std::mutex m;
  std::condition_variable cv;
  bool blocked = false;
  bool open = false;
  engine::TaskGroup blocker(&pool);
  blocker.run([&] {
    std::unique_lock lock(m);
    blocked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  });
  {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return blocked; });
  }

  std::atomic<int> total{0};
  std::vector<std::thread> runners;
  for (int g = 0; g < 6; ++g)
    runners.emplace_back([&] {
      engine::TaskGroup group(&pool);
      std::function<void(int)> chain = [&](int left) {
        std::this_thread::sleep_for(1ms);  // outlast the caller's wait()
        ++total;
        if (left > 1) group.run([&chain, left] { chain(left - 1); });
      };
      group.run([&chain] { chain(5); });
      group.wait();
    });
  for (std::thread& t : runners) t.join();
  EXPECT_EQ(total.load(), 30);

  {
    std::lock_guard lock(m);
    open = true;
  }
  cv.notify_all();
  blocker.wait();
}

// ------------------------------------------- campaign cancellation

engine::SweepSpec tiny_spec() {
  engine::SweepSpec spec;
  spec.hashed_bits = 16;
  spec.geometries = {CacheGeometry(1024, 4)};
  spec.configs = {engine::FunctionConfig::baseline(),
                  engine::FunctionConfig::classify()};
  workloads::Workload w =
      workloads::make_workload("adpcm_dec", workloads::Scale::small);
  spec.add_trace(w.name, std::move(w.data));
  return spec;
}

TEST(CampaignCancellation, RunThrowsCampaignCancelled) {
  engine::Campaign campaign(tiny_spec());
  engine::CancellationSource source;
  source.cancel();
  engine::CampaignOptions options;
  options.cancel = source.token();
  EXPECT_THROW(campaign.run(options), engine::CampaignCancelled);
}

TEST(CampaignCancellation, RunCellsMarksUnstartedCellsCancelled) {
  engine::Campaign campaign(tiny_spec());
  engine::CancellationSource source;
  source.cancel();
  engine::CampaignOptions options;
  options.cancel = source.token();
  const std::vector<engine::CellOutcome> outcomes =
      campaign.run_cells(options);
  ASSERT_EQ(outcomes.size(), campaign.jobs().size());
  for (const engine::CellOutcome& out : outcomes)
    EXPECT_EQ(out.state, engine::CellState::cancelled);
}

TEST(CampaignCancellation, MidRunCancelKeepsCompletedCellsExact) {
  engine::Campaign reference(tiny_spec());
  const std::vector<engine::JobResult> expected = reference.run({});

  engine::Campaign campaign(tiny_spec());
  engine::CancellationSource source;
  engine::CampaignOptions options;
  options.num_threads = 1;
  options.cancel = source.token();
  std::size_t seen = 0;
  const std::vector<engine::CellOutcome> outcomes = campaign.run_cells(
      options, [&](std::size_t, const engine::CellOutcome&) {
        if (++seen == 1) source.cancel();
      });
  ASSERT_EQ(outcomes.size(), expected.size());
  EXPECT_EQ(outcomes[0].state, engine::CellState::done);
  EXPECT_EQ(engine::csv_row(outcomes[0].result),
            engine::csv_row(expected[0]));
  EXPECT_EQ(outcomes[1].state, engine::CellState::cancelled);
}

// run_cells done rows carry exactly the bytes CsvSink writes.
TEST(CampaignRunCells, RowsMatchCsvSinkByteForByte) {
  engine::Campaign sink_campaign(tiny_spec());
  std::ostringstream csv;
  engine::CsvSink sink(csv);
  engine::CampaignOptions sink_options;
  sink_options.sink = &sink;
  sink_campaign.run(sink_options);

  engine::Campaign cells_campaign(tiny_spec());
  std::string rebuilt = engine::csv_header() + "\n";
  cells_campaign.run_cells(
      {}, [&](std::size_t, const engine::CellOutcome& out) {
        ASSERT_EQ(out.state, engine::CellState::done);
        rebuilt += engine::csv_row(out.result) + "\n";
      });
  EXPECT_EQ(rebuilt, csv.str());
}

// ------------------------------------------------ ProfileCache budget

TEST(ProfileCacheBudget, EvictsLeastRecentlyUsedWhenOverBudget) {
  engine::ProfileCache cache;
  const trace::Trace t = trace::stride_trace(0, 4096, 2048);
  const int bits = 10;  // 2^10-entry tables keep this test tiny
  const CacheGeometry g1(1024, 4);
  const CacheGeometry g2(2048, 4);

  const auto a = cache.get_or_build(t, g1, bits);
  ASSERT_NE(a, nullptr);
  const std::size_t one_profile = cache.bytes();
  ASSERT_GT(one_profile, 0u);

  // Budget for one profile: building a second evicts the first.
  cache.set_byte_budget(one_profile);
  const auto b = cache.get_or_build(t, g2, bits);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_LE(cache.bytes(), one_profile);

  // The evicted key is a fresh miss; the borrowed ProfilePtr `a` stayed
  // valid throughout (shared ownership outlives eviction).
  EXPECT_EQ(cache.misses(), 2u);
  const auto a2 = cache.get_or_build(t, g1, bits);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(a->total_mass(), a2->total_mass());
}

TEST(ProfileCacheBudget, ShrinkingBudgetEvictsImmediately) {
  engine::ProfileCache cache;
  const trace::Trace t = trace::stride_trace(0, 4096, 2048);
  (void)cache.get_or_build(t, CacheGeometry(1024, 4), 10);
  (void)cache.get_or_build(t, CacheGeometry(2048, 4), 10);
  ASSERT_EQ(cache.size(), 2u);
  cache.set_byte_budget(1);  // below any profile: keep-last only
  EXPECT_LE(cache.size(), 1u);
  EXPECT_GE(cache.evictions(), 1u);
}

// The headline concurrency guarantee: many threads hammering one key
// build exactly once, and hit/miss counters reconcile exactly.
TEST(ProfileCacheConcurrency, SingleBuildPerKeyUnderHammer) {
  engine::ProfileCache cache;
  const trace::Trace t = trace::stride_trace(0, 4096, 2048);
  const CacheGeometry geometry(1024, 4);
  constexpr int threads = 8;
  constexpr int per_thread = 24;

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int i = 0; i < threads; ++i)
    workers.emplace_back([&] {
      for (int j = 0; j < per_thread; ++j) {
        const auto p = cache.get_or_build(t, geometry, 12);
        ASSERT_NE(p, nullptr);
      }
    });
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(threads) * per_thread);
  EXPECT_EQ(cache.size(), 1u);
}

// Same hammer under eviction pressure: entries are evicted and rebuilt,
// but every call still gets a profile, counters still reconcile, and
// in-flight builds are never evicted (no torn futures).
TEST(ProfileCacheConcurrency, CountersReconcileUnderEvictionPressure) {
  engine::ProfileCache cache;
  cache.set_byte_budget(1);  // evict everything but the just-used entry
  const trace::Trace t = trace::stride_trace(0, 4096, 2048);
  const std::vector<CacheGeometry> geometries = {
      CacheGeometry(1024, 4), CacheGeometry(2048, 4), CacheGeometry(4096, 4)};
  constexpr int threads = 8;
  constexpr int per_thread = 12;

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int i = 0; i < threads; ++i)
    workers.emplace_back([&, i] {
      for (int j = 0; j < per_thread; ++j) {
        const auto p = cache.get_or_build(
            t, geometries[(i + j) % geometries.size()], 10);
        ASSERT_NE(p, nullptr);
        ASSERT_GT(p->references, 0u);
      }
    });
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(threads) * per_thread);
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_LE(cache.size(), geometries.size());
}

// --------------------------------------------------------- Service

/// Synchronous collector over the async RequestEvents callbacks.
struct Collected {
  std::size_t jobs = 0;
  std::vector<serve::CellEvent> cells;
  serve::RequestSummary summary;
  api::Status error;
  bool done = false;
  bool errored = false;
  std::mutex m;
  std::condition_variable cv;

  serve::RequestEvents events() {
    serve::RequestEvents e;
    e.on_accepted = [this](std::size_t n) {
      std::lock_guard lock(m);
      jobs = n;
    };
    e.on_cell = [this](const serve::CellEvent& cell) {
      std::lock_guard lock(m);
      cells.push_back(cell);
    };
    // Notify under the lock: the waiter may destroy this Collected the
    // moment it observes done/errored, which it can only do after the
    // callback releases the mutex.
    e.on_done = [this](const serve::RequestSummary& s) {
      std::lock_guard lock(m);
      summary = s;
      done = true;
      cv.notify_all();
    };
    e.on_error = [this](const api::Status& s) {
      std::lock_guard lock(m);
      error = s;
      errored = true;
      cv.notify_all();
    };
    return e;
  }

  /// True when the request terminated (done or error) within `timeout`.
  bool wait(std::chrono::seconds timeout = 60s) {
    std::unique_lock lock(m);
    return cv.wait_for(lock, timeout, [this] { return done || errored; });
  }
};

api::ExplorationRequest small_request() {
  api::ExplorationRequest request;
  for (const char* name : {"adpcm_dec", "fft"}) {
    workloads::Workload w =
        workloads::make_workload(name, workloads::Scale::small);
    request.traces.push_back(
        api::TraceRef::memory(w.name, std::move(w.data)));
  }
  request.geometries = {api::GeometrySpec(1024, 4),
                        api::GeometrySpec(4096, 4)};
  auto strategies = api::parse_strategies("base,perm:2");
  EXPECT_TRUE(strategies.ok());
  request.strategies = std::move(*strategies);
  return request;
}

TEST(Service, StreamedCellsMatchOneShotExplorerByteForByte) {
  std::ostringstream expected_csv;
  {
    api::ExplorationRequest one_shot = small_request();
    api::CsvSink sink(expected_csv);
    one_shot.sink = &sink;
    const auto report = api::Explorer::explore(one_shot);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
  }

  serve::Service service({.max_inflight = 2, .engine_threads = 2});
  Collected collected;
  const api::Status submitted =
      service.submit("r1", small_request(), collected.events());
  ASSERT_TRUE(submitted.ok()) << submitted.to_string();
  ASSERT_TRUE(collected.wait());
  ASSERT_TRUE(collected.done);
  EXPECT_EQ(collected.summary.failed, 0u);
  EXPECT_EQ(collected.summary.cancelled, 0u);
  EXPECT_FALSE(collected.summary.memo_hit);

  std::string rebuilt = engine::csv_header() + "\n";
  ASSERT_EQ(collected.cells.size(), collected.jobs);
  for (std::size_t i = 0; i < collected.cells.size(); ++i) {
    ASSERT_EQ(collected.cells[i].index, i);  // request order
    ASSERT_EQ(collected.cells[i].state, serve::CellEvent::State::done);
    rebuilt += collected.cells[i].csv + "\n";
  }
  EXPECT_EQ(rebuilt, expected_csv.str());
}

TEST(Service, RepeatedRequestIsServedFromMemo) {
  serve::Service service({.max_inflight = 1, .engine_threads = 2});
  Collected first;
  ASSERT_TRUE(service.submit("r1", small_request(), first.events()).ok());
  ASSERT_TRUE(first.wait());
  ASSERT_TRUE(first.done);
  EXPECT_FALSE(first.summary.memo_hit);
  EXPECT_GT(first.summary.profiles_built, 0u);

  const std::uint64_t misses_before = service.profile_cache().misses();
  Collected second;
  ASSERT_TRUE(service.submit("r2", small_request(), second.events()).ok());
  ASSERT_TRUE(second.wait());
  ASSERT_TRUE(second.done);
  EXPECT_TRUE(second.summary.memo_hit);
  EXPECT_EQ(second.summary.profiles_built, 0u);
  // Memo replay never touches the engine: no new profile builds.
  EXPECT_EQ(service.profile_cache().misses(), misses_before);
  EXPECT_EQ(service.status().memo_hits, 1u);

  ASSERT_EQ(second.cells.size(), first.cells.size());
  for (std::size_t i = 0; i < first.cells.size(); ++i)
    EXPECT_EQ(second.cells[i].csv, first.cells[i].csv);
}

/// A TraceSource whose reads block until the test opens the gate —
/// holds a request in flight for as long as the test needs.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  int blocked = 0;  ///< readers currently parked in wait()
  void release() {
    std::lock_guard lock(m);
    open = true;
    cv.notify_all();
  }
  void wait() {
    std::unique_lock lock(m);
    ++blocked;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
    --blocked;
  }
  /// True once a reader is parked in wait(), false after `timeout`.
  bool wait_for_reader(std::chrono::milliseconds timeout) {
    std::unique_lock lock(m);
    return cv.wait_for(lock, timeout, [this] { return blocked > 0; });
  }
};

class GatedSource final : public tracestore::TraceSource {
 public:
  GatedSource(std::shared_ptr<Gate> gate,
              std::shared_ptr<const trace::Trace> t)
      : gate_(std::move(gate)), inner_(std::move(t)) {}

  std::size_t next_batch(std::span<trace::Access> out) override {
    gate_->wait();
    return inner_.next_batch(out);
  }
  void reset() override { inner_.reset(); }
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }

 private:
  std::shared_ptr<Gate> gate_;
  tracestore::MemorySource inner_;
};

api::ExplorationRequest gated_request(const std::shared_ptr<Gate>& gate) {
  auto trace = std::make_shared<const trace::Trace>(
      trace::stride_trace(0, 4096, 2048));
  api::ExplorationRequest request;
  request.traces.push_back(api::TraceRef::source(
      "gated", [gate, trace] {
        return std::make_unique<GatedSource>(gate, trace);
      }));
  request.geometries = {api::GeometrySpec(1024, 4)};
  auto strategies = api::parse_strategies("base");
  EXPECT_TRUE(strategies.ok());
  request.strategies = std::move(*strategies);
  return request;
}

TEST(Service, AdmissionRejectsWithTypedBusyWhenFull) {
  serve::Service service(
      {.max_inflight = 1, .queue_capacity = 0, .engine_threads = 1});
  auto gate = std::make_shared<Gate>();

  Collected gated;
  ASSERT_TRUE(
      service.submit("r1", gated_request(gate), gated.events()).ok());

  // r1 holds the only slot (blocked inside its trace scan); r2 must be
  // rejected immediately with the typed busy code, via both the return
  // value and on_error.
  Collected rejected;
  api::Status busy;
  for (int i = 0; i < 200; ++i) {
    busy = service.submit("r2", small_request(), rejected.events());
    if (!busy.ok()) break;           // expected: rejected
    std::this_thread::sleep_for(5ms);  // r1 not yet picked up by a driver
  }
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.code(), api::StatusCode::busy);
  ASSERT_TRUE(rejected.wait(5s));
  EXPECT_TRUE(rejected.errored);
  EXPECT_EQ(rejected.error.code(), api::StatusCode::busy);
  EXPECT_GE(service.status().rejected, 1u);

  gate->release();
  ASSERT_TRUE(gated.wait());
  EXPECT_TRUE(gated.done);
}

TEST(Service, CancelFreesTheSlotWithoutCorruptingOthers) {
  serve::Service service(
      {.max_inflight = 1, .queue_capacity = 0, .engine_threads = 1});
  auto gate = std::make_shared<Gate>();

  Collected gated;
  ASSERT_TRUE(
      service.submit("r1", gated_request(gate), gated.events()).ok());
  // Wait until r1 is reading its trace — past the driver's queued-cancel
  // check — then cancel and unblock.
  ASSERT_TRUE(gate->wait_for_reader(5s));
  ASSERT_EQ(service.status().inflight, 1u);
  ASSERT_TRUE(service.cancel("r1").ok());
  gate->release();
  ASSERT_TRUE(gated.wait());
  ASSERT_TRUE(gated.done);
  EXPECT_EQ(gated.summary.cancelled, gated.summary.cells);
  EXPECT_GT(gated.summary.cells, 0u);

  // The slot is free again and an untouched request runs to completion.
  Collected next;
  ASSERT_TRUE(service.submit("r3", small_request(), next.events()).ok());
  ASSERT_TRUE(next.wait());
  ASSERT_TRUE(next.done);
  EXPECT_EQ(next.summary.failed, 0u);
  EXPECT_EQ(next.summary.cancelled, 0u);

  // A cancelled id is forgotten once the request finishes.
  EXPECT_EQ(service.cancel("r1").code(), api::StatusCode::not_found);
}

TEST(Service, DuplicateActiveIdIsRejected) {
  serve::Service service({.max_inflight = 2, .engine_threads = 1});
  auto gate = std::make_shared<Gate>();
  Collected gated;
  ASSERT_TRUE(
      service.submit("dup", gated_request(gate), gated.events()).ok());
  Collected second;
  const api::Status status =
      service.submit("dup", small_request(), second.events());
  EXPECT_EQ(status.code(), api::StatusCode::invalid_argument);
  gate->release();
  ASSERT_TRUE(gated.wait());
}

TEST(Service, ShutdownCancelsInFlightAndRejectsNewWork) {
  serve::Service service({.max_inflight = 1, .engine_threads = 1});
  auto gate = std::make_shared<Gate>();
  Collected gated;
  ASSERT_TRUE(
      service.submit("r1", gated_request(gate), gated.events()).ok());
  std::thread release_soon([&] {
    std::this_thread::sleep_for(50ms);
    gate->release();
  });
  service.shutdown();  // fires r1's token, joins drivers
  release_soon.join();
  ASSERT_TRUE(gated.done || gated.errored);
  if (gated.done) EXPECT_EQ(gated.summary.cancelled, gated.summary.cells);

  Collected late;
  const api::Status status =
      service.submit("r2", small_request(), late.events());
  EXPECT_EQ(status.code(), api::StatusCode::busy);
}

// ------------------------------------------------------- shard cancel

// A fired token still yields a valid, mergeable report: every unstarted
// cell is marked with a `cancelled` CellError instead of vanishing.
TEST(ShardCancellation, FiredTokenFlushesCancelMarkedReport) {
  api::ExplorationRequest request = small_request();
  engine::CancellationSource source;
  source.cancel();
  request.cancel = source.token();

  const auto plan = shard::ShardPlan::partition(request, 1);
  ASSERT_TRUE(plan.ok());
  const auto report = shard::run_shard(request, *plan, 1);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_EQ(report->cells.size(), plan->total_cells());
  for (const shard::Cell& cell : report->cells) {
    ASSERT_FALSE(cell.ok());
    EXPECT_EQ(cell.error().code, api::StatusCode::cancelled);
  }
  EXPECT_EQ(report->error_count(), report->cells.size());
}

/// A trace source that fires a cancellation after `passes` full passes
/// over the trace (a pass ends when the source reports the end).
class CancellingSource final : public tracestore::TraceSource {
 public:
  CancellingSource(std::shared_ptr<const trace::Trace> t,
                   engine::CancellationSource& cancel,
                   std::atomic<int>& passes_left)
      : inner_(std::move(t)), cancel_(cancel), passes_left_(passes_left) {}
  std::size_t next_batch(std::span<trace::Access> out) override {
    const std::size_t got = inner_.next_batch(out);
    if (got == 0 && --passes_left_ == 0) cancel_.cancel();
    return got;
  }
  void reset() override { inner_.reset(); }
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }

 private:
  tracestore::MemorySource inner_;
  engine::CancellationSource& cancel_;
  std::atomic<int>& passes_left_;
};

// A token fired mid-slice: cells that finished keep their rows, the
// running cell finishes too, and only cells not yet started are marked
// cancelled. Serially, the second pass over the trace is the "fa" cell
// (the first is the baseline "base" reuses), so "base" and "fa" finish
// and "3c" is abandoned.
TEST(ShardCancellation, CellsFinishedBeforeTheCancelKeepTheirRows) {
  const auto shared = std::make_shared<const trace::Trace>(
      trace::stride_trace(0, 4096, 64));
  engine::CancellationSource cancel;
  std::atomic<int> passes_left{2};
  api::ExplorationRequest request;
  request.traces.push_back(api::TraceRef::source(
      "cancelling",
      [&] {
        return std::make_unique<CancellingSource>(shared, cancel,
                                                  passes_left);
      },
      tracestore::trace_id_of(*shared)));
  request.geometries = {api::GeometrySpec(1024, 4)};
  request.strategies = api::parse_strategies("base,fa,3c").value();
  request.num_threads = 1;
  request.cancel = cancel.token();

  const auto plan = shard::ShardPlan::partition(request, 1);
  ASSERT_TRUE(plan.ok());
  const auto report = shard::run_shard(request, *plan, 1);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  ASSERT_EQ(report->cells.size(), 3u);
  EXPECT_TRUE(report->cells[0].ok());
  EXPECT_TRUE(report->cells[1].ok());
  ASSERT_FALSE(report->cells[2].ok());
  EXPECT_EQ(report->cells[2].error().code, api::StatusCode::cancelled);
}

// ------------------------------------------------------------- JSON

TEST(Json, ParsesAndSerializesRoundTrip) {
  const std::string text =
      R"({"a":1,"b":-2.5,"c":"x\n\"y\"","d":[true,false,null],"e":{},)"
      R"("f":[0.1,4914.715]})";
  const auto parsed = serve::parse_json(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(parsed->find("b")->as_double(), -2.5);
  EXPECT_EQ(parsed->find("c")->as_string(), "x\n\"y\"");
  EXPECT_EQ(parsed->find("d")->items().size(), 3u);
  // Doubles serialize in their shortest round-trippable form.
  EXPECT_EQ(parsed->serialize(), text);

  // Every RFC 8259 number form parses: zero, negative zero, fraction,
  // signed exponent.
  const struct {
    const char* text;
    double value;
  } numbers[] = {{"0", 0.0}, {"-0", 0.0}, {"0.5", 0.5}, {"-1.5E-3", -1.5e-3}};
  for (const auto& number : numbers) {
    const auto n = serve::parse_json(number.text);
    ASSERT_TRUE(n.ok()) << number.text << ": " << n.status().to_string();
    EXPECT_DOUBLE_EQ(n->as_double(), number.value) << number.text;
  }
}

TEST(Json, ParsesUnicodeEscapesIncludingSurrogatePairs) {
  const auto parsed = serve::parse_json(R"("\u0041\u00e9\ud83d\ude00")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "A\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedInputWithByteOffsets) {
  for (const char* bad :
       {"{", "[1,]", "{\"a\":1,\"a\":2}", "tru", "1.2.3", "\"unterminated",
        "{\"a\"}", "[1] trailing", "\"\\u12\"", "\"\\ud800\"",
        // Numbers outside RFC 8259's grammar.
        "01", "00", "-01", "1.", ".5", "-.5", "1.e5", "[1.]"}) {
    const auto parsed = serve::parse_json(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), api::StatusCode::parse_error) << bad;
    EXPECT_NE(parsed.status().message().find("at byte"), std::string::npos)
        << bad;
  }
}

TEST(Json, NeverEmitsRawNewlines) {
  serve::JsonValue obj = serve::JsonValue::object();
  obj.set("text", std::string("line1\nline2\r\ttab"));
  const std::string wire = obj.serialize();
  EXPECT_EQ(wire.find('\n'), std::string::npos);
  EXPECT_EQ(wire, R"({"text":"line1\nline2\r\ttab"})");
}

// ---------------------------------------------------------- protocol

TEST(Protocol, ParsesExploreCommandWithWorkloadTraces) {
  const auto parsed = serve::parse_command(
      R"({"cmd":"explore","id":"r1",)"
      R"("traces":[{"workload":"adpcm_dec","scale":"small"}],)"
      R"("caches":[1024,4096],"strategies":["base","perm:2"]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->kind, serve::Command::Kind::explore);
  EXPECT_EQ(parsed->id, "r1");
  EXPECT_EQ(parsed->request.traces.size(), 1u);
  EXPECT_EQ(parsed->request.traces[0].name(), "adpcm_dec");
  ASSERT_EQ(parsed->request.geometries.size(), 2u);
  EXPECT_EQ(parsed->request.geometries[0].size_bytes, 1024u);
  EXPECT_EQ(parsed->request.geometries[0].block_bytes, 4u);
  ASSERT_EQ(parsed->request.strategies.size(), 2u);
  EXPECT_EQ(parsed->request.hashed_bits, 16);
}

TEST(Protocol, RejectsBadCommands) {
  const struct {
    const char* line;
    api::StatusCode code;
  } cases[] = {
      {"not json", api::StatusCode::parse_error},
      {R"({"cmd":"frobnicate"})", api::StatusCode::invalid_argument},
      {R"({"cmd":"explore"})", api::StatusCode::invalid_argument},
      {R"({"cmd":"explore","id":"r","traces":[],"caches":[0],)"
       R"("strategies":["base"]})",
       api::StatusCode::invalid_argument},
      {R"({"cmd":"explore","id":"r",)"
       R"("traces":[{"workload":"no_such_workload"}],)"
       R"("caches":[1024],"strategies":["base"]})",
       api::StatusCode::not_found},
      {R"({"cmd":"explore","id":"r",)"
       R"("traces":[{"workload":"adpcm_dec","scale":"small"}],)"
       R"("caches":[1024],"geometries":[{"size":1024}],)"
       R"("strategies":["base"]})",
       api::StatusCode::invalid_argument},
      {R"({"cmd":"cancel"})", api::StatusCode::invalid_argument},
  };
  for (const auto& c : cases) {
    const auto parsed = serve::parse_command(c.line);
    ASSERT_FALSE(parsed.ok()) << c.line;
    EXPECT_EQ(parsed.status().code(), c.code) << c.line;
  }
}

TEST(Protocol, EventsAreSingleLineJson) {
  serve::CellEvent cell;
  cell.index = 3;
  cell.state = serve::CellEvent::State::failed;
  cell.error = api::Status(api::StatusCode::io_error, "disk\ngone")
                   .with_trace("t1");
  const std::string frame = serve::cell_event("r9", cell);
  EXPECT_EQ(frame.find('\n'), std::string::npos);
  const auto parsed = serve::parse_json(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->find("event")->as_string(), "cell");
  EXPECT_EQ(parsed->find("state")->as_string(), "failed");
  EXPECT_EQ(parsed->find("error")->find("code")->as_string(), "io-error");
  EXPECT_EQ(parsed->find("error")->find("trace")->as_string(), "t1");
}

TEST(Protocol, ParsesListenAddresses) {
  const auto full = serve::parse_listen_address("0.0.0.0:7420");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->first, "0.0.0.0");
  EXPECT_EQ(full->second, 7420);
  const auto port_only = serve::parse_listen_address(":0");
  ASSERT_TRUE(port_only.ok());
  EXPECT_EQ(port_only->first, "127.0.0.1");
  EXPECT_EQ(port_only->second, 0);
  EXPECT_FALSE(serve::parse_listen_address("host:port").ok());
  EXPECT_FALSE(serve::parse_listen_address("1.2.3.4:99999").ok());
}

// ------------------------------------------------------------ server

/// Minimal blocking NDJSON client for loopback tests.
class TestClient {
 public:
  /// `rcvbuf_bytes` > 0 shrinks SO_RCVBUF before connecting so a
  /// non-reading client back-pressures the server's send() quickly.
  explicit TestClient(std::uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ >= 0 && rcvbuf_bytes > 0)
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&sa),
                           sizeof(sa)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return connected_; }

  void send_line(const std::string& line) {
    const std::string wire = line + "\n";
    ASSERT_EQ(::send(fd_, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
  }

  /// Next full line, or empty on EOF.
  std::string read_line() {
    std::string line;
    char c = 0;
    while (::recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') return line;
      line += c;
    }
    return line;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(Server, ServesExploreStatusAndMetricsOverTcp) {
  serve::ServerOptions options;
  options.listen = "127.0.0.1:0";
  options.service.max_inflight = 2;
  options.service.engine_threads = 2;
  serve::Server server(options);
  ASSERT_TRUE(server.bind().ok());
  ASSERT_NE(server.port(), 0);
  std::thread serving([&] { server.serve(); });

  std::ostringstream expected_csv;
  {
    api::ExplorationRequest one_shot;
    workloads::Workload w =
        workloads::make_workload("adpcm_dec", workloads::Scale::small);
    one_shot.traces.push_back(
        api::TraceRef::memory(w.name, std::move(w.data)));
    one_shot.geometries = {api::GeometrySpec(1024, 4)};
    one_shot.strategies = *api::parse_strategies("base,perm:2");
    api::CsvSink sink(expected_csv);
    one_shot.sink = &sink;
    ASSERT_TRUE(api::Explorer::explore(one_shot).ok());
  }

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.send_line(
      R"({"cmd":"explore","id":"r1",)"
      R"("traces":[{"workload":"adpcm_dec","scale":"small"}],)"
      R"("caches":[1024],"strategies":["base","perm:2"]})");

  std::string rebuilt;
  bool done = false;
  while (!done) {
    const std::string line = client.read_line();
    ASSERT_FALSE(line.empty()) << "connection closed mid-stream";
    const auto event = serve::parse_json(line);
    ASSERT_TRUE(event.ok()) << line;
    const std::string kind = event->find("event")->as_string();
    if (kind == "accepted") {
      rebuilt = event->find("csv_header")->as_string() + "\n";
    } else if (kind == "cell") {
      ASSERT_EQ(event->find("state")->as_string(), "done") << line;
      rebuilt += event->find("csv")->as_string() + "\n";
    } else if (kind == "done") {
      EXPECT_EQ(event->find("failed")->as_int(), 0);
      done = true;
    } else {
      FAIL() << "unexpected event: " << line;
    }
  }
  EXPECT_EQ(rebuilt, expected_csv.str());

  client.send_line(R"({"cmd":"status"})");
  const auto status = serve::parse_json(client.read_line());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->find("event")->as_string(), "status");
  EXPECT_EQ(status->find("status")->find("completed")->as_int(), 1);

  client.send_line(R"({"cmd":"metrics"})");
  const auto metrics = serve::parse_json(client.read_line());
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->find("event")->as_string(), "metrics");
  if (obs::compiled())  // XORIDX_OBS=OFF registers no metric families
    EXPECT_NE(metrics->find("body")->as_string().find("# TYPE"),
              std::string::npos);

  client.send_line("garbage");
  const auto error = serve::parse_json(client.read_line());
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->find("event")->as_string(), "error");
  EXPECT_EQ(error->find("error")->find("code")->as_string(), "parse-error");

  server.request_stop();
  serving.join();
}

TEST(Server, ShutdownCommandStopsTheDaemon) {
  serve::ServerOptions options;
  options.listen = "127.0.0.1:0";
  serve::Server server(options);
  ASSERT_TRUE(server.bind().ok());
  std::thread serving([&] { server.serve(); });
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.send_line(R"({"cmd":"shutdown"})");
  const auto reply = serve::parse_json(client.read_line());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->find("event")->as_string(), "status");
  serving.join();  // returns because the command stopped the loop
}

// A client that stops reading must not pin a driver thread forever:
// SO_SNDTIMEO turns the wedged send() into a hangup that cancels the
// connection's in-flight work and frees the slot.
TEST(Server, StalledClientTimesOutAndFreesTheSlot) {
  const std::uint64_t timeouts_before =
      obs::registry().snapshot().counter("serve.send_timeouts");

  serve::ServerOptions options;
  options.listen = "127.0.0.1:0";
  options.send_timeout_s = 0.5;
  options.send_buffer_bytes = 4096;  // back-pressure after a few KiB
  options.service.max_inflight = 1;  // the stalled request owns the slot
  options.service.engine_threads = 1;
  serve::Server server(options);
  ASSERT_TRUE(server.bind().ok());
  std::thread serving([&] { server.serve(); });

  {
    // Tiny receive buffer, never reads. A many-cell sweep keeps the
    // driver busy while metrics floods wedge the reader thread's send.
    TestClient stalled(server.port(), /*rcvbuf_bytes=*/4096);
    ASSERT_TRUE(stalled.connected());
    stalled.send_line(
        R"({"cmd":"explore","id":"wedged",)"
        R"("traces":[{"workload":"adpcm_dec","scale":"small"},)"
        R"({"workload":"crc","scale":"small"}],)"
        R"("caches":[256,512,1024,2048,4096,8192,16384,32768],)"
        R"("strategies":["base","perm:2","perm:4"]})");
    for (int i = 0; i < 64; ++i) stalled.send_line(R"({"cmd":"metrics"})");

    // The send timeout must fire and be counted (when obs is compiled
    // in: XORIDX_OBS=OFF counts nothing).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    if (obs::compiled()) {
      while (obs::registry().snapshot().counter("serve.send_timeouts") ==
                 timeouts_before &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(10ms);
      EXPECT_GT(obs::registry().snapshot().counter("serve.send_timeouts"),
                timeouts_before);
    }

    // The hangup cancels the in-flight request: the slot drains even
    // though the client never read a byte and never disconnected. The
    // request must have finished, not merely not started yet.
    const auto drained = [&] {
      const serve::ServiceStatus s = server.service().status();
      return s.completed > 0 && s.inflight == 0;
    };
    while (!drained() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(10ms);
    EXPECT_EQ(server.service().status().inflight, 0u);
  }

  // The freed slot serves a fresh connection immediately.
  TestClient healthy(server.port());
  ASSERT_TRUE(healthy.connected());
  healthy.send_line(R"({"cmd":"status"})");
  const auto status = serve::parse_json(healthy.read_line());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->find("event")->as_string(), "status");

  server.request_stop();
  serving.join();
}

// ---------------------------------------------- graceful-shutdown death

serve::Server* g_death_server = nullptr;
extern "C" void death_test_sigterm(int /*sig*/) {
  if (g_death_server != nullptr) g_death_server->request_stop();
}

// The daemon's answer to SIGTERM is a drain and a clean exit 0 — the
// signal must never reach the default (process-killing) disposition.
// Same death-test idiom as the PR-7 flight-recorder test.
TEST(ServeShutdownDeathTest, SigtermDrainsAndExitsCleanly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        serve::ServerOptions options;
        options.listen = "127.0.0.1:0";
        options.service.max_inflight = 1;
        options.service.engine_threads = 1;
        serve::Server server(options);
        if (!server.bind().ok()) std::_Exit(3);
        g_death_server = &server;
        std::signal(SIGTERM, death_test_sigterm);
        std::thread killer([] {
          std::this_thread::sleep_for(100ms);
          ::raise(SIGTERM);
        });
        server.serve();  // returns only via the handler's request_stop
        killer.join();
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace xoridx
