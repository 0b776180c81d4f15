// Public-API tests: Status/Result, the strategy grammar, TraceRef
// resolution, Explorer error paths (missing file, corrupt header,
// unknown strategy, bad geometry, mid-sweep cell failures) and
// identity between the facade and the engine it lowers onto.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/report.hpp"
#include "trace/generators.hpp"
#include "tracestore/store.hpp"
#include "tracestore/format.hpp"
#include "tracestore/writer.hpp"
#include "xoridx/api.hpp"

namespace xoridx::api {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

trace::Trace small_trace() { return trace::stride_trace(0, 4096, 256); }

// ------------------------------------------------------------ Status

TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Status, ToStringNamesCodeMessageAndCell) {
  Status s(StatusCode::io_error, "boom");
  s.with_cell("fft", "4 KB/4B/1-way", "perm:2");
  const std::string text = s.to_string();
  EXPECT_NE(text.find("io-error"), std::string::npos);
  EXPECT_NE(text.find("boom"), std::string::npos);
  EXPECT_NE(text.find("fft x 4 KB/4B/1-way x perm:2"), std::string::npos);
}

TEST(Status, PartialCellNamesOnlyKnownFields) {
  Status s(StatusCode::parse_error, "bad");
  s.with_strategy("warp9");
  const std::string text = s.to_string();
  EXPECT_NE(text.find("strategy=warp9"), std::string::npos);
  EXPECT_EQ(text.find("trace="), std::string::npos);
}

TEST(Result, ValueThrowsOnError) {
  const Result<int> r = Status(StatusCode::not_found, "nope");
  EXPECT_FALSE(r.ok());
  EXPECT_THROW((void)r.value(), BadResultAccess);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, HoldsValue) {
  const Result<int> r = 41;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 41);
  EXPECT_TRUE(r.status().ok());
}

// ----------------------------------------------------------- Version

TEST(Version, MacroAndTripleAgree) {
  const Version v = version();
  const std::string joined = std::to_string(v.major) + "." +
                             std::to_string(v.minor) + "." +
                             std::to_string(v.patch);
  EXPECT_EQ(joined, version_string());
  EXPECT_EQ(min_trace_format_version, 1);
  EXPECT_EQ(max_trace_format_version, 2);
}

// ---------------------------------------------------- strategy grammar

const engine::OptimizeIndexJob* as_optimize(const Strategy& s) {
  return std::get_if<engine::OptimizeIndexJob>(&s.config->payload);
}

TEST(StrategyGrammar, ParsesEveryRegisteredName) {
  for (const StrategyInfo& info : strategy_registry()) {
    const Result<Strategy> parsed = parse_strategy(info.name);
    ASSERT_TRUE(parsed.ok()) << info.name << ": "
                             << parsed.status().to_string();
    EXPECT_EQ(parsed->label, info.name);
    EXPECT_TRUE(parsed->config.has_value());
  }
}

TEST(StrategyGrammar, PermFanInFormsAreEquivalent) {
  const Result<Strategy> shorthand = parse_strategy("perm:2");
  const Result<Strategy> keyed = parse_strategy("perm:fanin=2");
  ASSERT_TRUE(shorthand.ok());
  ASSERT_TRUE(keyed.ok());
  const auto* a = as_optimize(*shorthand);
  const auto* b = as_optimize(*keyed);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->max_fan_in, 2);
  EXPECT_EQ(b->max_fan_in, 2);
  EXPECT_EQ(a->function_class, search::FunctionClass::permutation);
  // Labels keep the exact spec the caller wrote.
  EXPECT_EQ(shorthand->label, "perm:2");
  EXPECT_EQ(keyed->label, "perm:fanin=2");
}

TEST(StrategyGrammar, RevertAndClassAliases) {
  const Result<Strategy> xr = parse_strategy("xor:revert");
  ASSERT_TRUE(xr.ok());
  const auto* job = as_optimize(*xr);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->function_class, search::FunctionClass::general_xor);
  EXPECT_TRUE(job->revert_if_worse);

  // The general-XOR search has no fan-in constraint: a fan-in option is
  // a parse error rather than a silently ignored value, in every form
  // and through the legacy alias.
  for (const char* bad : {"xor:fanin=4:revert", "xor:fanin=2", "xor:4",
                          "general:fanin=2"}) {
    const Result<Strategy> parsed = parse_strategy(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "' should not parse";
    EXPECT_EQ(parsed.status().code(), StatusCode::parse_error);
    EXPECT_NE(parsed.status().to_string().find("takes no fan-in option"),
              std::string::npos)
        << parsed.status().to_string();
  }

  // Legacy aliases stay accepted: general, classify, opt, opt-est,
  // permutation.
  EXPECT_TRUE(parse_strategy("general").ok());
  EXPECT_TRUE(parse_strategy("classify").ok());
  EXPECT_TRUE(parse_strategy("permutation:2").ok());
  const Result<Strategy> opt = parse_strategy("opt");
  ASSERT_TRUE(opt.ok());
  EXPECT_NE(std::get_if<engine::OptimalBitSelectJob>(&opt->config->payload),
            nullptr);
}

TEST(StrategyGrammar, BitSelectModes) {
  const Result<Strategy> exact = parse_strategy("bitselect:exact");
  ASSERT_TRUE(exact.ok());
  const auto* exhaustive =
      std::get_if<engine::OptimalBitSelectJob>(&exact->config->payload);
  ASSERT_NE(exhaustive, nullptr);
  EXPECT_FALSE(exhaustive->use_estimator);

  const Result<Strategy> est = parse_strategy("bitselect:est");
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(std::get_if<engine::OptimalBitSelectJob>(&est->config->payload)
                  ->use_estimator);

  const Result<Strategy> heuristic = parse_strategy("bitselect");
  ASSERT_TRUE(heuristic.ok());
  ASSERT_NE(as_optimize(*heuristic), nullptr);
  EXPECT_EQ(as_optimize(*heuristic)->function_class,
            search::FunctionClass::bit_select);
}

TEST(StrategyGrammar, ThreadsOptionParsesIntoSearchJobs) {
  // threads=K parses on the hill-climbing strategies (0 included) and is
  // carried into the search job; the default is 1.
  const Result<Strategy> perm = parse_strategy("perm:threads=4");
  ASSERT_TRUE(perm.ok()) << perm.status().to_string();
  EXPECT_EQ(as_optimize(*perm)->threads, 4);
  EXPECT_EQ(as_optimize(parse_strategy("perm").value())->threads, 1);
  EXPECT_EQ(as_optimize(parse_strategy("xor:threads=0").value())->threads, 0);
  EXPECT_EQ(
      as_optimize(parse_strategy("bitselect:threads=2").value())->threads, 2);
  // Composes with the other search options.
  const Result<Strategy> combo =
      parse_strategy("perm:fanin=2:restarts=3:threads=8");
  ASSERT_TRUE(combo.ok()) << combo.status().to_string();
  EXPECT_EQ(as_optimize(*combo)->max_fan_in, 2);
  EXPECT_EQ(as_optimize(*combo)->random_restarts, 3);
  EXPECT_EQ(as_optimize(*combo)->threads, 8);
}

TEST(StrategyGrammar, BadSpecsNameTheToken) {
  for (const char* bad :
       {"warp9", "perm:warp=1", "perm:0", "base:fanin=2",
        "bitselect:exact:est", "fa:revert", "",
        // Malformed / misplaced threads= and restarts= values must fail
        // naming the offending token (the CLI turns these into exit 2).
        "perm:threads=", "perm:threads=x", "perm:threads=-1",
        "perm:threads=2.5", "xor:restarts=", "xor:restarts=abc",
        "base:threads=2", "bitselect:exact:threads=2", "3c:restarts=1"}) {
    const Result<Strategy> parsed = parse_strategy(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "' should not parse";
    EXPECT_EQ(parsed.status().code(), StatusCode::parse_error);
    if (*bad != '\0')
      EXPECT_NE(parsed.status().to_string().find(bad), std::string::npos)
          << "error must name the bad token: "
          << parsed.status().to_string();
  }
}

TEST(StrategyGrammar, MutatorsApplyOnlyToSearchStrategies) {
  // The CLI path: a user-chosen class plus a separate fan-in argument.
  Strategy bitselect = parse_strategy("bitselect").value();
  bitselect.with_fan_in(4).with_revert();
  const auto* heuristic = as_optimize(bitselect);
  ASSERT_NE(heuristic, nullptr);
  EXPECT_EQ(heuristic->max_fan_in, 4);  // stored; the search ignores it
  EXPECT_TRUE(heuristic->revert_if_worse);

  Strategy perm = parse_strategy("perm").value();
  perm.with_fan_in(2);
  EXPECT_EQ(as_optimize(perm)->max_fan_in, 2);

  // Non-search strategies are untouched (and still valid).
  Strategy exact = parse_strategy("bitselect:exact").value();
  exact.with_fan_in(4).with_revert();
  EXPECT_NE(std::get_if<engine::OptimalBitSelectJob>(&exact.config->payload),
            nullptr);

  // On a deferred strategy the options are recorded in the spec, not
  // dropped, so the eventual parse honors them.
  Strategy deferred = Strategy::deferred("perm");
  deferred.with_fan_in(2).with_revert();
  EXPECT_EQ(deferred.spec, "perm:fanin=2:revert");

  // function_class() surfaces the parsed class of search strategies.
  EXPECT_EQ(parse_strategy("xor").value().function_class(),
            search::FunctionClass::general_xor);
  EXPECT_EQ(parse_strategy("bitselect").value().function_class(),
            search::FunctionClass::bit_select);
  EXPECT_EQ(parse_strategy("fa").value().function_class(), std::nullopt);
  EXPECT_EQ(Strategy::deferred("perm").function_class(), std::nullopt);
}

TEST(StrategyGrammar, ListParsingFailsOnFirstBadToken) {
  const Result<std::vector<Strategy>> ok = parse_strategies("base,perm:2,fa");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 3u);

  const Result<std::vector<Strategy>> bad =
      parse_strategies("base,nonsense,fa");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("nonsense"), std::string::npos);
}

// ----------------------------------------------------------- TraceRef

TEST(TraceRefTest, MissingFileIsNotFoundNotThrow) {
  const TraceRef ref = TraceRef::file(temp_path("xoridx_api_nope.trc"));
  const Status status = ref.identity().status();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::not_found);
  EXPECT_NE(status.message().find("xoridx_api_nope.trc"), std::string::npos);
  EXPECT_FALSE(ref.load().ok());
  EXPECT_FALSE(ref.open().ok());
}

TEST(TraceRefTest, LoadAndOpenAgreeAcrossKinds) {
  const trace::Trace t = small_trace();
  const std::string path = temp_path("xoridx_api_kinds.v2");
  tracestore::save_trace_v2(path, t);

  for (const TraceRef& ref :
       {TraceRef::memory("mem", t), TraceRef::file("eager", path),
        TraceRef::streaming("stream", path)}) {
    const Result<trace::Trace> loaded = ref.load();
    ASSERT_TRUE(loaded.ok()) << ref.name();
    EXPECT_EQ(loaded->size(), t.size());
    auto source = ref.open();
    ASSERT_TRUE(source.ok()) << ref.name();
    EXPECT_EQ((*source)->size(), t.size());
  }
}

TEST(TraceRefTest, BorrowedRefDoesNotCopy) {
  const trace::Trace t = small_trace();
  const TraceRef ref = TraceRef::borrowed("borrowed", t);
  const Result<std::unique_ptr<tracestore::TraceSource>> source = ref.open();
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->size(), t.size());
  const Result<trace::Trace> loaded = ref.load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), t.size());
}

TEST(TraceRefTest, CustomSourceRoundTrips) {
  const auto shared = std::make_shared<const trace::Trace>(small_trace());
  const TraceRef ref = TraceRef::source("custom", [shared] {
    return std::make_unique<tracestore::MemorySource>(shared);
  });
  EXPECT_TRUE(ref.identity().ok());
  const Result<trace::Trace> loaded = ref.load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), shared->size());
}

// -------------------------------------------------- trace resolution

// Every kind of ref over the same content resolves to the same id and
// length: identity() without loading anything, lower() as the entry a
// campaign runs (exactly one of an in-memory trace and an open factory).
TEST(TraceResolution, EveryKindResolvesToTheContentId) {
  const auto shared = std::make_shared<const trace::Trace>(small_trace());
  const tracestore::TraceId expected = tracestore::trace_id_of(*shared);
  const std::string v1 = temp_path("xoridx_api_resolve.v1");
  const std::string v2 = temp_path("xoridx_api_resolve.v2");
  tracestore::save_trace_v1(v1, *shared);
  tracestore::save_trace_v2(v2, *shared);
  const auto factory = [shared] {
    return std::make_unique<tracestore::MemorySource>(shared);
  };

  for (const TraceRef& ref :
       {TraceRef::memory("memory", shared),
        TraceRef::borrowed("borrowed", *shared), TraceRef::file("file-v1", v1),
        TraceRef::file("file-v2", v2), TraceRef::streaming("streaming-v1", v1),
        TraceRef::streaming("streaming-v2", v2),
        TraceRef::source("source", factory),
        TraceRef::source("source-id", factory, expected)}) {
    const Result<TraceRef::Identity> identity = ref.identity();
    ASSERT_TRUE(identity.ok()) << identity.status().to_string();
    EXPECT_EQ(identity->id, expected) << ref.name();
    EXPECT_EQ(identity->accesses, shared->size()) << ref.name();

    const Result<engine::TraceEntry> entry = ref.lower();
    ASSERT_TRUE(entry.ok()) << entry.status().to_string();
    EXPECT_EQ(entry->name, ref.name());
    EXPECT_EQ(entry->id, expected) << ref.name();
    EXPECT_EQ(entry->accesses, shared->size()) << ref.name();
    EXPECT_EQ(entry->trace == nullptr, ref.is_streaming()) << ref.name();
    EXPECT_EQ(entry->open == nullptr, !ref.is_streaming()) << ref.name();
    if (entry->open) EXPECT_EQ(entry->open()->size(), shared->size());
  }
  std::remove(v1.c_str());
  std::remove(v2.c_str());
}

TEST(TraceResolution, ErrorsNameTheTraceFromBothCalls) {
  const std::string absent = temp_path("xoridx_api_resolve_absent.v2");
  const std::string corrupt = temp_path("xoridx_api_resolve_corrupt.v2");
  tracestore::save_trace_v2(corrupt, small_trace());
  {
    std::fstream f(corrupt, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(tracestore::v2_off_index_offset));
    const char big[8] = {~0, ~0, ~0, ~0, ~0, ~0, ~0, 0x7f};
    f.write(big, 8);
  }
  const auto null_source = [] {
    return std::unique_ptr<tracestore::TraceSource>();
  };

  struct Case {
    TraceRef ref;
    StatusCode code;
  };
  for (const Case& c :
       {Case{TraceRef::file("missing-file", absent), StatusCode::not_found},
        Case{TraceRef::streaming("missing-stream", absent),
             StatusCode::not_found},
        Case{TraceRef::memory("detached", nullptr),
             StatusCode::invalid_argument},
        Case{TraceRef::source("null-factory", nullptr),
             StatusCode::invalid_argument},
        Case{TraceRef::source("null-source", null_source),
             StatusCode::io_error},
        Case{TraceRef::file("corrupt-file", corrupt), StatusCode::io_error},
        Case{TraceRef::streaming("corrupt-stream", corrupt),
             StatusCode::io_error}}) {
    for (const Status& status :
         {c.ref.identity().status(), c.ref.lower().status()}) {
      EXPECT_EQ(status.code(), c.code) << status.to_string();
      EXPECT_EQ(status.trace(), c.ref.name()) << status.to_string();
    }
  }
  std::remove(corrupt.c_str());
}

/// Counts what a custom source costs: factory opens, and full passes
/// (a pass ends when the source reports the end of the trace).
struct SourceCounts {
  std::atomic<int> opens{0};
  std::atomic<int> passes{0};
};

class CountingSource final : public tracestore::TraceSource {
 public:
  CountingSource(std::shared_ptr<const trace::Trace> t, SourceCounts& counts)
      : inner_(std::move(t)), counts_(counts) {}
  std::size_t next_batch(std::span<trace::Access> out) override {
    const std::size_t got = inner_.next_batch(out);
    if (got == 0) ++counts_.passes;
    return got;
  }
  void reset() override { inner_.reset(); }
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }

 private:
  tracestore::MemorySource inner_;
  SourceCounts& counts_;
};

// Explore resolves a custom source with one open, and scans it only when
// no id was given. With a fired token no cell runs, so the counts are
// resolution alone; a "base" run adds one open and one pass (the
// baseline simulation).
TEST(TraceResolution, ExploreOpensACustomSourceOnceToResolveIt) {
  const auto shared = std::make_shared<const trace::Trace>(small_trace());
  for (const bool with_id : {false, true}) {
    for (const bool cancelled : {true, false}) {
      SourceCounts counts;
      ExplorationRequest request;
      request.traces.push_back(TraceRef::source(
          "counted",
          [&counts, shared] {
            ++counts.opens;
            return std::make_unique<CountingSource>(shared, counts);
          },
          with_id ? tracestore::trace_id_of(*shared) : tracestore::TraceId{}));
      request.geometries = {GeometrySpec(1024, 4)};
      request.strategies = {parse_strategy("base").value()};
      engine::CancellationSource cancel;
      if (cancelled) cancel.cancel();
      request.cancel = cancel.token();

      const Result<Report> report = Explorer::explore(request);
      EXPECT_EQ(report.status().code(),
                cancelled ? StatusCode::cancelled : StatusCode::ok);
      const int resolve_passes = with_id ? 0 : 1;
      EXPECT_EQ(counts.opens, cancelled ? 1 : 2)
          << "with_id=" << with_id << " cancelled=" << cancelled;
      EXPECT_EQ(counts.passes, resolve_passes + (cancelled ? 0 : 1))
          << "with_id=" << with_id << " cancelled=" << cancelled;
    }
  }
}

// ----------------------------------------------------- Explorer errors

ExplorationRequest small_request() {
  ExplorationRequest request;
  request.traces.push_back(TraceRef::memory("stride", small_trace()));
  request.geometries = {GeometrySpec(1024, 4)};
  request.strategies = {parse_strategy("base").value()};
  return request;
}

TEST(ExplorerErrors, EmptyRequestFields) {
  ExplorationRequest request;
  EXPECT_EQ(Explorer::explore(request).status().code(),
            StatusCode::invalid_argument);
  request = small_request();
  request.geometries.clear();
  EXPECT_EQ(Explorer::explore(request).status().code(),
            StatusCode::invalid_argument);
  request = small_request();
  request.strategies.clear();
  EXPECT_FALSE(Explorer::explore(request).ok());
}

TEST(ExplorerErrors, MissingTraceFile) {
  ExplorationRequest request = small_request();
  request.traces.push_back(
      TraceRef::streaming("ghost", temp_path("xoridx_api_ghost.v2")));
  const Result<Report> r = Explorer::explore(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::not_found);
  EXPECT_EQ(r.status().trace(), "ghost");
}

TEST(ExplorerErrors, CorruptV2Header) {
  const std::string path = temp_path("xoridx_api_corrupt_header.v2");
  {
    std::ofstream os(path, std::ios::binary);
    os.write("XORIDXT2garbagegarbagegarbage", 29);
  }
  ExplorationRequest request = small_request();
  request.traces.push_back(TraceRef::streaming("corrupt", path));
  const Result<Report> r = Explorer::explore(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::io_error);
  EXPECT_EQ(r.status().trace(), "corrupt");

  // The one-shot utility agrees.
  EXPECT_EQ(trace_info(path).status().code(), StatusCode::io_error);
}

TEST(ExplorerErrors, UnknownStrategySpec) {
  ExplorationRequest request = small_request();
  request.strategies.push_back(Strategy::deferred("warp9"));
  const Result<Report> r = Explorer::explore(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::parse_error);
  EXPECT_NE(r.status().message().find("warp9"), std::string::npos);
  EXPECT_EQ(r.status().strategy(), "warp9");
}

TEST(ExplorerErrors, ZeroSetGeometry) {
  ExplorationRequest request = small_request();
  request.geometries = {GeometrySpec(0, 4)};
  const Result<Report> r = Explorer::explore(request);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::invalid_argument);
  EXPECT_NE(r.status().message().find("nonzero"), std::string::npos);
  EXPECT_FALSE(r.status().geometry().empty());

  // A geometry whose sets collapse below one (block x assoc > size).
  request.geometries = {GeometrySpec(16, 4, 8)};
  EXPECT_EQ(Explorer::explore(request).status().code(),
            StatusCode::invalid_argument);

  // m > n: more index bits than hashed bits.
  request.geometries = {GeometrySpec(1u << 20, 4)};
  request.hashed_bits = 8;
  const Result<Report> mn = Explorer::explore(request);
  ASSERT_FALSE(mn.ok());
  EXPECT_NE(mn.status().message().find("m <= n"), std::string::npos);
}

TEST(ExplorerErrors, MidSweepJobFailureNamesTheCell) {
  // A source that reports a size but explodes when a job pulls from it:
  // validation and campaign construction succeed, the failure happens
  // inside a worker, and the surfaced Status names the exact cell.
  class ExplodingSource final : public tracestore::TraceSource {
   public:
    std::size_t next_batch(std::span<trace::Access>) override {
      throw std::runtime_error("simulated remote fetch failure");
    }
    void reset() override {}
    [[nodiscard]] std::uint64_t size() const override { return 64; }
  };

  ExplorationRequest request = small_request();
  request.strategies = {parse_strategy("base").value(),
                        parse_strategy("perm:2").value()};
  tracestore::TraceId fake_id;
  fake_id.lo = 0x1234;
  fake_id.hi = 0x5678;
  request.traces.push_back(TraceRef::source(
      "exploding", [] { return std::make_unique<ExplodingSource>(); },
      fake_id));
  request.num_threads = 2;
  const Result<Report> r = Explorer::explore(request);
  ASSERT_FALSE(r.ok());
  // Runtime failures inside jobs classify as I/O, not internal.
  EXPECT_EQ(r.status().code(), StatusCode::io_error);
  EXPECT_EQ(r.status().trace(), "exploding");
  EXPECT_EQ(r.status().geometry(), "1 KB/4B/1-way");
  EXPECT_FALSE(r.status().strategy().empty());
  EXPECT_NE(r.status().message().find("simulated remote fetch failure"),
            std::string::npos);

  // Without a known id the content-id scan fails before any job runs;
  // the Status must still name the trace.
  request.traces.back() = TraceRef::source(
      "exploding-unscanned", [] { return std::make_unique<ExplodingSource>(); });
  const Result<Report> scan = Explorer::explore(request);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().trace(), "exploding-unscanned");
}

// ------------------------------------------------- Explorer happy path

TEST(ExplorerRun, MatchesDirectEngineRun) {
  ExplorationRequest request;
  request.traces.push_back(TraceRef::memory("stride", small_trace()));
  request.geometries = {GeometrySpec(1024, 4), GeometrySpec(4096, 4)};
  request.strategies = parse_strategies("base,perm:2,3c").value();

  std::ostringstream api_csv;
  CsvSink api_sink(api_csv);
  request.sink = &api_sink;
  const Result<Report> explored = Explorer::explore(request);
  ASSERT_TRUE(explored.ok()) << explored.status().to_string();
  const Report& report = *explored;
  ASSERT_EQ(report.rows.size(), 6u);
  EXPECT_EQ(report.trace_names, std::vector<std::string>{"stride"});
  EXPECT_EQ(report.strategy_labels,
            (std::vector<std::string>{"base", "perm:2", "3c"}));
  EXPECT_GT(report.profiles_built, 0u);

  // The same sweep driven through the engine directly is identical,
  // row for row and byte for byte.
  engine::SweepSpec spec;
  spec.add_trace("stride", small_trace());
  spec.geometries = {cache::CacheGeometry(1024, 4),
                     cache::CacheGeometry(4096, 4)};
  spec.configs = {
      engine::FunctionConfig::baseline("base"),
      engine::FunctionConfig::optimize("perm:2",
                                       search::FunctionClass::permutation, 2),
      engine::FunctionConfig::classify("3c"),
  };
  std::ostringstream engine_csv;
  engine::CsvSink engine_sink(engine_csv);
  engine::CampaignOptions options;
  options.sink = &engine_sink;
  engine::Campaign campaign(std::move(spec));
  const std::vector<engine::JobResult> direct = campaign.run(options);

  ASSERT_EQ(direct.size(), report.rows.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_EQ(direct[i], report.rows[i]) << "row " << i;
  EXPECT_EQ(api_csv.str(), engine_csv.str());
}

TEST(ExplorerRun, StreamingAndEagerFileRefsAgree) {
  const trace::Trace t = small_trace();
  const std::string path = temp_path("xoridx_api_agree.v2");
  tracestore::save_trace_v2(path, t);

  ExplorationRequest request;
  request.traces = {TraceRef::memory("m", t), TraceRef::file("e", path),
                    TraceRef::streaming("s", path)};
  request.geometries = {GeometrySpec(1024, 4)};
  // Every job kind, so each of the campaign's trace passes is covered.
  const std::vector<Strategy> strategies =
      parse_strategies("base,fa,3c,perm:2,xor,bitselect:est,bitselect:exact")
          .value();
  request.strategies = strategies;
  const Result<Report> r = Explorer::explore(request);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    const Row& mem = r->at(0, 0, s);
    for (const std::size_t other : {1, 2}) {
      const Row& row = r->at(other, 0, s);
      SCOPED_TRACE(strategies[s].spec + " on " + row.trace_name);
      EXPECT_EQ(mem.accesses, row.accesses);
      EXPECT_EQ(mem.baseline_misses, row.baseline_misses);
      EXPECT_EQ(mem.misses, row.misses);
      EXPECT_EQ(mem.estimated_misses, row.estimated_misses);
      EXPECT_EQ(mem.reverted, row.reverted);
      EXPECT_EQ(mem.breakdown, row.breakdown);
      EXPECT_EQ(mem.function_description, row.function_description);
    }
  }
  // All three refs share one content id, so the profile was built once.
  EXPECT_EQ(r->profiles_built, 1u);
  EXPECT_GE(r->profiles_shared, 2u);
}

// ----------------------------------------------- one-shot conveniences

TEST(OneShot, TuneMatchesExplore) {
  const trace::Trace t = small_trace();
  const Result<TuneOutcome> tuned =
      tune(TraceRef::memory("stride", t), GeometrySpec(1024, 4),
           parse_strategy("perm:2").value());
  ASSERT_TRUE(tuned.ok()) << tuned.status().to_string();
  ASSERT_NE(tuned->function, nullptr);

  ExplorationRequest request;
  request.traces.push_back(TraceRef::memory("stride", t));
  request.geometries = {GeometrySpec(1024, 4)};
  request.strategies = {parse_strategy("perm:2").value()};
  const Result<Report> explored = Explorer::explore(request);
  ASSERT_TRUE(explored.ok());
  EXPECT_EQ(tuned->optimized_misses, explored->rows[0].misses);
  EXPECT_EQ(tuned->baseline_misses, explored->rows[0].baseline_misses);
}

TEST(OneShot, TuneHonorsThreadsAndStaysIdentical) {
  // tune accepts threads=K and, like the engine path, returns
  // bit-identical results to the serial spec: every scan is serial.
  const trace::Trace t = small_trace();
  const Result<TuneOutcome> serial =
      tune(TraceRef::memory("stride", t), GeometrySpec(1024, 4),
           parse_strategy("perm").value());
  const Result<TuneOutcome> threaded =
      tune(TraceRef::memory("stride", t), GeometrySpec(1024, 4),
           parse_strategy("perm:threads=3").value());
  ASSERT_TRUE(serial.ok()) << serial.status().to_string();
  ASSERT_TRUE(threaded.ok()) << threaded.status().to_string();
  EXPECT_EQ(serial->optimized_misses, threaded->optimized_misses);
  EXPECT_EQ(serial->estimated_misses, threaded->estimated_misses);
  EXPECT_EQ(serial->function->describe(), threaded->function->describe());
  EXPECT_EQ(serial->stats.evaluations, threaded->stats.evaluations);
}

TEST(OneShot, TuneRejectsNonSearchStrategies) {
  const Result<TuneOutcome> r =
      tune(TraceRef::memory("t", small_trace()), GeometrySpec(1024, 4),
           parse_strategy("fa").value());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::invalid_argument);
  EXPECT_NE(r.status().message().find("fa"), std::string::npos);
}

TEST(OneShot, SimulateAndProfileWork) {
  const TraceRef ref = TraceRef::memory("t", small_trace());
  const Result<cache::MissBreakdown> sim =
      simulate(ref, GeometrySpec(1024, 4));
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sim->accesses, small_trace().size());
  EXPECT_EQ(sim->misses, sim->compulsory + sim->capacity + sim->conflict);

  const Result<xoridx::profile::ConflictProfile> prof =
      build_profile(ref, GeometrySpec(1024, 4), 16);
  ASSERT_TRUE(prof.ok());
  EXPECT_EQ(prof->references, small_trace().size());

  EXPECT_EQ(simulate(ref, GeometrySpec(0, 0)).status().code(),
            StatusCode::invalid_argument);
}

TEST(OneShot, ConvertTraceReportsSummaryAndErrors) {
  const trace::Trace t = small_trace();
  const std::string v1 = temp_path("xoridx_api_conv.v1");
  const std::string v2 = temp_path("xoridx_api_conv.v2");
  tracestore::save_trace_v1(v1, t);
  // Qualified: an unqualified call would be ambiguous with
  // tracestore::convert_trace through ADL on the TraceFormat argument.
  const Result<ConversionSummary> converted =
      api::convert_trace(v1, v2, tracestore::TraceFormat::v2);
  ASSERT_TRUE(converted.ok()) << converted.status().to_string();
  EXPECT_EQ(converted->accesses, t.size());
  EXPECT_GT(converted->file_bytes, 0u);
  const Result<tracestore::TraceFileInfo> info = trace_info(v2);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->id, converted->id);

  EXPECT_EQ(api::convert_trace(temp_path("xoridx_api_conv_missing.v1"), v2,
                               tracestore::TraceFormat::v2)
                .status()
                .code(),
            StatusCode::not_found);
}

}  // namespace
}  // namespace xoridx::api
