// Evaluation-engine tests: thread pool, profile cache, campaign
// expansion, parallel-vs-serial determinism, and the result sinks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/trace_ref.hpp"
#include "cache/simulate.hpp"
#include "engine/campaign.hpp"
#include "engine/profile_cache.hpp"
#include "engine/report.hpp"
#include "engine/thread_pool.hpp"
#include "hash/xor_function.hpp"
#include "serve/json.hpp"
#include "trace/generators.hpp"
#include "tracestore/store.hpp"
#include "workloads/workload.hpp"

namespace xoridx::engine {
namespace {

using cache::CacheGeometry;
using search::FunctionClass;

// --------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 1000; ++i)
    group.run([&] { counter.fetch_add(1, std::memory_order_relaxed); });
  group.wait();
  EXPECT_EQ(counter.load(), 1000);
}

// A task may run more tasks on its own group: they start after their
// parent has done its work, and wait() covers them. The sleeps keep
// tasks running long after wait() is entered, so a group that stopped
// counting a task before it finished would let wait() return early.
TEST(TaskGroup, WaitCoversNestedRuns) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::atomic<int> saw_parent{0};
  int parent_work = 0;  // written before the nested runs, read by them
  TaskGroup group(&pool);
  group.run([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    parent_work = 42;
    for (int i = 0; i < 10; ++i)
      group.run([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (parent_work == 42) saw_parent.fetch_add(1);
        counter.fetch_add(1, std::memory_order_relaxed);
      });
  });
  group.wait();
  EXPECT_EQ(counter.load(), 10);
  EXPECT_EQ(saw_parent.load(), 10);
}

// Without a pool every task, nested ones included, runs inline at its
// run() call: the serial reference order.
TEST(TaskGroup, NullPoolRunsInlineInCallOrder) {
  std::vector<int> order;
  TaskGroup group(nullptr);
  group.run([&] {
    order.push_back(0);
    group.run([&] { order.push_back(1); });
    order.push_back(2);
  });
  group.run([&] { order.push_back(3); });
  group.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 100; ++i)
      pool.submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DefaultThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

// ------------------------------------------------------------- ProfileCache

TEST(ProfileCache, BuildsOncePerKey) {
  const trace::Trace t = trace::stride_trace(0, 4096, 256);
  const CacheGeometry geom(1024, 4);
  ProfileCache cache;

  const auto p1 = cache.get_or_build(t, geom, 12);
  const auto p2 = cache.get_or_build(t, geom, 12);
  EXPECT_EQ(p1.get(), p2.get());  // same built object, not a rebuild
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProfileCache, DistinctKeysBuildSeparately) {
  const trace::Trace t = trace::stride_trace(0, 4096, 256);
  ProfileCache cache;
  const auto a = cache.get_or_build(t, CacheGeometry(1024, 4), 12);
  const auto b = cache.get_or_build(t, CacheGeometry(4096, 4), 12);
  const auto c = cache.get_or_build(t, CacheGeometry(1024, 4), 10);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ProfileCache, ConcurrentRequestsShareOneBuild) {
  const trace::Trace t = trace::stride_trace(0, 4096, 4096);
  const CacheGeometry geom(1024, 4);
  ProfileCache cache;
  ThreadPool pool(8);
  std::atomic<int> ok{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 32; ++i)
    group.run([&] {
      if (cache.get_or_build(t, geom, 12) != nullptr)
        ok.fetch_add(1, std::memory_order_relaxed);
    });
  group.wait();
  EXPECT_EQ(ok.load(), 32);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 31u);
}

TEST(ProfileCache, ReleaseDropsTheEntryAndItsBytes) {
  const trace::Trace t = trace::stride_trace(0, 4096, 256);
  const CacheGeometry geom(1024, 4);
  ProfileCache cache;
  const auto kept = cache.get_or_build(t, geom, 12);
  const auto other = cache.get_or_build(t, CacheGeometry(4096, 4), 12);
  const std::size_t all_bytes = cache.bytes();
  const tracestore::TraceId id = tracestore::trace_id_of(t);

  cache.release(id, geom, 12);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), all_bytes - kept->memory_bytes());
  EXPECT_GT(kept->memory_bytes(), 0u);  // the reader's copy stays alive
  cache.release(id, geom, 12);          // no entry left: a no-op
  EXPECT_EQ(cache.size(), 1u);

  const auto rebuilt = cache.get_or_build(t, geom, 12);
  EXPECT_NE(rebuilt.get(), kept.get());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);
}

// ----------------------------------------------------------------- Campaign

SweepSpec small_spec() {
  SweepSpec spec;
  spec.hashed_bits = 16;
  spec.geometries = {CacheGeometry(1024, 4), CacheGeometry(4096, 4)};
  spec.configs = {
      FunctionConfig::baseline(),
      FunctionConfig::optimize("perm-2in", FunctionClass::permutation, 2),
      FunctionConfig::optimize("general", FunctionClass::general_xor),
      FunctionConfig::fully_associative(),
      FunctionConfig::classify(),
  };
  for (const char* name : {"dijkstra", "fft"}) {
    workloads::Workload w =
        workloads::make_workload(name, workloads::Scale::small);
    spec.add_trace(w.name, std::move(w.data));
  }
  return spec;
}

TEST(Campaign, ExpandsSpecInTraceGeometryConfigOrder) {
  Campaign campaign(small_spec());
  const auto& spec = campaign.spec();
  ASSERT_EQ(campaign.jobs().size(), spec.job_count());
  std::size_t i = 0;
  for (std::size_t t = 0; t < spec.traces.size(); ++t)
    for (std::size_t g = 0; g < spec.geometries.size(); ++g)
      for (std::size_t c = 0; c < spec.configs.size(); ++c, ++i) {
        EXPECT_EQ(campaign.job_index(t, g, c), i);
        EXPECT_EQ(campaign.jobs()[i].trace_index, t);
        EXPECT_EQ(campaign.jobs()[i].geometry_index, g);
        EXPECT_EQ(campaign.jobs()[i].label, spec.configs[c].label);
      }
}

// The headline guarantee: a parallel run aggregates byte-identically to
// the serial (num_threads = 1) reference path.
TEST(Campaign, ParallelRunMatchesSerialByteForByte) {
  Campaign serial(small_spec());
  Campaign parallel(small_spec());

  std::ostringstream serial_csv, parallel_csv;
  std::ostringstream serial_json, parallel_json;

  CsvSink scsv(serial_csv);
  CampaignOptions sopts;
  sopts.num_threads = 1;
  sopts.sink = &scsv;
  const std::vector<JobResult> sres = serial.run(sopts);
  {
    JsonSink sink(serial_json);
    sink.begin();
    for (const JobResult& r : sres) sink.write(r);
    sink.end();
  }

  CsvSink pcsv(parallel_csv);
  CampaignOptions popts;
  popts.num_threads = 8;
  popts.sink = &pcsv;
  const std::vector<JobResult> pres = parallel.run(popts);
  {
    JsonSink sink(parallel_json);
    sink.begin();
    for (const JobResult& r : pres) sink.write(r);
    sink.end();
  }

  EXPECT_EQ(sres, pres);
  EXPECT_EQ(serial_csv.str(), parallel_csv.str());
  EXPECT_EQ(serial_json.str(), parallel_json.str());
  EXPECT_FALSE(serial_csv.str().empty());
}

// threads=K cells run serially on the caller-supplied pool they are
// given — even a one-worker one — and produce the serial run's rows.
TEST(Campaign, ThreadsCellsOnAOneWorkerPoolMatchSerial) {
  const auto spec = [] {
    SweepSpec s = small_spec();
    s.configs = {
        FunctionConfig::baseline(),
        FunctionConfig::optimize("perm-t4", FunctionClass::permutation,
                                 search::SearchOptions::unlimited, false, 1,
                                 search::SearchOptions{}.seed, 4),
        FunctionConfig::optimize("perm-2in-t0", FunctionClass::permutation,
                                 2, false, 0, search::SearchOptions{}.seed,
                                 0),
    };
    return s;
  };
  Campaign serial(spec());
  CampaignOptions sopts;
  sopts.num_threads = 1;
  const std::vector<JobResult> expected = serial.run(sopts);

  Campaign pooled(spec());
  ThreadPool pool(1);
  CampaignOptions popts;
  popts.pool = &pool;
  EXPECT_EQ(pooled.run(popts), expected);
}

// Profile construction is deduplicated per (trace, geometry): the two
// search configs of each cell share one profile.
TEST(Campaign, ProfileCacheSharedAcrossConfigs) {
  Campaign campaign(small_spec());
  CampaignOptions options;
  options.num_threads = 4;
  campaign.run(options);
  // 2 traces x 2 geometries, and 2 profile-consuming configs per cell
  // (perm-2in, general) -> 4 builds, 4 hits.
  EXPECT_EQ(campaign.profiles().misses(), 4u);
  EXPECT_EQ(campaign.profiles().hits(), 4u);
}

// A private profile cache releases each profile after its last reader,
// so a finished run holds none and the next run builds each key again.
TEST(Campaign, PrivateProfilesReleasedAfterTheirLastReader) {
  Campaign campaign(small_spec());
  CampaignOptions options;
  options.num_threads = 4;
  const std::vector<JobResult> first = campaign.run(options);
  EXPECT_EQ(campaign.profiles().misses(), 4u);
  EXPECT_EQ(campaign.profiles().hits(), 4u);
  EXPECT_EQ(campaign.profiles().size(), 0u);
  EXPECT_EQ(campaign.profiles().bytes(), 0u);

  EXPECT_EQ(campaign.run(options), first);
  EXPECT_EQ(campaign.profiles().misses(), 8u);
  EXPECT_EQ(campaign.profiles().hits(), 8u);
  EXPECT_EQ(campaign.profiles().size(), 0u);
}

// Reader counts follow the cache's key, (content, geometry), not the
// trace's position: two traces with equal content share one build.
TEST(Campaign, EqualContentTracesShareOneReleasedProfile) {
  SweepSpec spec = small_spec();
  spec.traces.resize(1);
  spec.traces.push_back(spec.traces.front());
  spec.traces.back().name = "copy";
  Campaign campaign(std::move(spec));
  CampaignOptions options;
  options.num_threads = 4;
  campaign.run(options);
  // 2 geometries, 2 traces x 2 readers per key -> 2 builds, 6 hits.
  EXPECT_EQ(campaign.profiles().misses(), 2u);
  EXPECT_EQ(campaign.profiles().hits(), 6u);
  EXPECT_EQ(campaign.profiles().size(), 0u);
}

// A shared cache belongs to its owner (the serving daemon): the campaign
// never releases from it.
TEST(Campaign, SharedProfileCacheKeepsItsEntries) {
  auto shared = std::make_shared<ProfileCache>();
  Campaign campaign(small_spec(), shared);
  CampaignOptions options;
  options.num_threads = 4;
  campaign.run(options);
  EXPECT_EQ(shared->misses(), 4u);
  EXPECT_EQ(shared->hits(), 4u);
  EXPECT_EQ(shared->size(), 4u);
  EXPECT_GT(shared->bytes(), 0u);
}

TEST(Campaign, ResultsMatchDirectCalls) {
  SweepSpec spec;
  spec.hashed_bits = 16;
  spec.geometries = {CacheGeometry(1024, 4)};
  spec.configs = {FunctionConfig::baseline(), FunctionConfig::classify()};
  const trace::Trace reference = trace::stride_trace(0, 4096, 2048);
  spec.add_trace("stride", trace::Trace(reference));

  Campaign campaign(std::move(spec));
  const std::vector<JobResult> results = campaign.run({});

  const hash::XorFunction conventional = hash::XorFunction::conventional(
      16, CacheGeometry(1024, 4).index_bits());
  const cache::CacheStats direct = cache::simulate_direct_mapped(
      reference, CacheGeometry(1024, 4), conventional);
  EXPECT_EQ(results[0].misses, direct.misses);
  EXPECT_EQ(results[0].accesses, direct.accesses);
  EXPECT_EQ(results[0].baseline_misses, direct.misses);

  const cache::MissBreakdown breakdown = cache::classify_misses(
      reference, CacheGeometry(1024, 4), conventional);
  EXPECT_EQ(results[1].breakdown, breakdown);
  EXPECT_EQ(results[1].breakdown.compulsory + results[1].breakdown.capacity +
                results[1].breakdown.conflict,
            results[1].misses);
}

TEST(Campaign, StreamsResultsInSpecOrder) {
  Campaign campaign(small_spec());

  struct OrderSink final : ResultSink {
    std::vector<std::string> keys;
    void write(const JobResult& r) override {
      keys.push_back(r.trace_name + "/" + r.geometry.to_string() + "/" +
                     r.label);
    }
  } sink;
  CampaignOptions options;
  options.num_threads = 8;
  options.sink = &sink;
  campaign.run(options);

  ASSERT_EQ(sink.keys.size(), campaign.jobs().size());
  for (std::size_t i = 0; i < campaign.jobs().size(); ++i) {
    const Job& job = campaign.jobs()[i];
    EXPECT_EQ(sink.keys[i],
              campaign.spec().traces[job.trace_index].name + "/" +
                  campaign.spec().geometries[job.geometry_index].to_string() +
                  "/" + job.label);
  }
}

// -------------------------------------------------------------------- Sinks

TEST(Sinks, CsvEscapesCommasQuotesAndNewlines) {
  JobResult r;
  r.trace_name = "a,b";
  r.geometry = CacheGeometry(1024, 4);
  r.label = "l\"q";
  r.kind = "evaluate";
  r.function_description = "line1\nline2";
  std::ostringstream os;
  CsvSink sink(os);
  sink.begin();
  sink.write(r);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.find("\"l\"\"q\""), std::string::npos);
  EXPECT_NE(out.find("line1; line2"), std::string::npos);
  EXPECT_EQ(out.find('\n', out.find("a,b")),
            out.size() - 1);  // one data row, newline-free fields
}

// A worker failure must surface as a CampaignError naming the failing
// (trace, geometry, label) cell — not as the bare underlying exception.
// The failing entry here is a streaming file deleted after campaign
// construction (metadata was read, per-job open fails), both serially
// and on the pool. Every cell of the vanished trace fails under its own
// label, and the failure is not cached: once the file is back, the same
// campaign runs clean.
TEST(Campaign, WorkerFailureNamesTheCell) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "xoridx_engine_vanish.bin")
          .string();
  tracestore::save_trace_v1(path, trace::stride_trace(0, 4096, 64));

  for (const unsigned threads : {1u, 4u}) {
    SweepSpec spec;
    spec.add_trace("healthy", trace::stride_trace(0, 4096, 64));
    spec.traces.push_back(
        api::TraceRef::streaming("vanishing", path).lower().value());
    spec.geometries = {CacheGeometry(1024, 4)};
    spec.configs = {
        FunctionConfig::baseline("base"),
        FunctionConfig::optimize("perm:2", FunctionClass::permutation, 2)};
    Campaign campaign(std::move(spec));
    std::filesystem::remove(path);

    CampaignOptions options;
    options.num_threads = threads;
    try {
      (void)campaign.run(options);
      FAIL() << "expected CampaignError (threads=" << threads << ")";
    } catch (const CampaignError& e) {
      EXPECT_EQ(e.trace_name(), "vanishing");
      EXPECT_EQ(e.geometry(), CacheGeometry(1024, 4));
      // run() surfaces the failure that settles first: on the pool
      // either cell of the vanished trace.
      if (threads == 1)
        EXPECT_EQ(e.label(), "base");
      else
        EXPECT_TRUE(e.label() == "base" || e.label() == "perm:2");
      EXPECT_NE(std::string(e.what()).find("vanishing"), std::string::npos);
    }

    const std::vector<CellOutcome> outcomes = campaign.run_cells(options);
    ASSERT_EQ(outcomes.size(), 4u);
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(outcomes[campaign.job_index(0, 0, c)].state,
                CellState::done);
      const CellOutcome& out = outcomes[campaign.job_index(1, 0, c)];
      ASSERT_EQ(out.state, CellState::failed) << "config " << c;
      try {
        std::rethrow_exception(out.error);
      } catch (const CampaignError& e) {
        EXPECT_EQ(e.trace_name(), "vanishing");
        EXPECT_EQ(e.label(), campaign.spec().configs[c].label);
      }
    }

    // Recreate: the next run builds again instead of replaying the
    // failure (and the next thread-count round finds the file).
    tracestore::save_trace_v1(path, trace::stride_trace(0, 4096, 64));
    const std::vector<JobResult> results = campaign.run(options);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[campaign.job_index(1, 0, 0)].misses,
              results[campaign.job_index(0, 0, 0)].misses);
  }
  std::filesystem::remove(path);
}

TEST(Sinks, JsonEscapesStrings) {
  JobResult r;
  r.trace_name = "quote\" backslash\\ newline\n";
  r.geometry = CacheGeometry(1024, 4);
  r.label = "l";
  r.kind = "evaluate";
  std::ostringstream os;
  JsonSink sink(os);
  sink.begin();
  sink.write(r);
  sink.end();
  const std::string out = os.str();
  EXPECT_NE(out.find("quote\\\" backslash\\\\ newline\\n"),
            std::string::npos);
  const api::Result<serve::JsonValue> rows = serve::parse_json(out);
  ASSERT_TRUE(rows.ok()) << rows.status().to_string() << "\n" << out;
  ASSERT_EQ(rows->items().size(), 1u);
  EXPECT_EQ(rows->items()[0].find("trace")->as_string(), r.trace_name);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out[out.size() - 2], ']');
}

}  // namespace
}  // namespace xoridx::engine
