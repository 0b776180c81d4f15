// Sharded-campaign tests: the differential harness (merge of N shard
// runs must be cell-for-cell and CSV-byte identical to the unsharded
// run, for randomized requests including failing cells), the shard-spec
// grammar, plan determinism and coverage, the JSON report serialization
// against corrupt inputs (truncation, bit flips, version skew,
// duplicate/missing shards), and the seeded-restart determinism sharding
// relies on. decoder_mutation_test mutates reports far more broadly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "trace/generators.hpp"
#include "tracestore/store.hpp"
#include "tracestore/writer.hpp"
#include "workloads/workload.hpp"
#include "io/atomic_file.hpp"
#include "xoridx/shard.hpp"

namespace xoridx::shard {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// Replace `from` with `to` in a report file's JSON line and re-seal the
/// checksum trailer, so only the decoder's or the merge's own checks can
/// catch the edit.
std::string edit_json(const std::string& data, const std::string& from,
                      const std::string& to) {
  std::string body = data.substr(0, data.rfind("\nchecksum "));
  const std::size_t at = body.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) body.replace(at, from.size(), to);
  return io::seal_checksum(body);
}

api::ExplorationRequest small_request() {
  api::ExplorationRequest request;
  request.traces.push_back(
      api::TraceRef::memory("stride", trace::stride_trace(0, 4096, 256)));
  request.geometries = {api::GeometrySpec(1024, 4)};
  request.strategies = {api::parse_strategy("base").value()};
  return request;
}

/// Run a request as N shard processes would: partition, run each shard,
/// round-trip every shard report through disk, merge.
api::Result<Report> run_via_shards(const api::ExplorationRequest& request,
                                   std::uint32_t num_shards,
                                   const std::string& tag) {
  api::Result<ShardPlan> plan = ShardPlan::partition(request, num_shards);
  if (!plan.ok()) return plan.status();
  std::vector<Report> shards;
  for (std::uint32_t i = 1; i <= num_shards; ++i) {
    api::Result<Report> report = run_shard(request, *plan, i);
    if (!report.ok()) return report.status();
    const std::string path = temp_path("xoridx_shard_" + tag + "_" +
                                       std::to_string(i) + ".rpt");
    if (api::Status saved = save_report(*report, path); !saved.ok())
      return saved;
    api::Result<Report> loaded = load_report(path);
    if (!loaded.ok()) return loaded.status();
    shards.push_back(std::move(*loaded));
  }
  return merge_reports(std::move(shards));
}

std::string csv_of(const Report& report) {
  std::ostringstream os;
  report.write_csv(os);
  return os.str();
}

// ------------------------------------------------------- shard grammar

TEST(ShardSpec, ParsesValidSelectors) {
  const api::Result<ShardRef> one = parse_shard_ref("1/1");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->index, 1u);
  EXPECT_EQ(one->count, 1u);
  const api::Result<ShardRef> mid = parse_shard_ref("3/7");
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->index, 3u);
  EXPECT_EQ(mid->count, 7u);
  EXPECT_EQ(mid->to_string(), "3/7");
}

TEST(ShardSpec, MalformedSelectorsNameTheBadValue) {
  // The ISSUE's canonical bad specs plus edge forms; each error must be
  // a Status (no assert/throw) naming the offending value.
  for (const char* bad : {"0/4", "5/4", "a/b", "3", "1/0", "/4", "1/",
                          "1//2", "-1/4", "1/4x", ""}) {
    const api::Result<ShardRef> parsed = parse_shard_ref(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "' should not parse";
    EXPECT_EQ(parsed.status().code(), api::StatusCode::invalid_argument);
    EXPECT_NE(parsed.status().message().find("shard"), std::string::npos);
  }
  EXPECT_NE(parse_shard_ref("5/4").status().message().find("5"),
            std::string::npos);
  EXPECT_NE(parse_shard_ref("a/b").status().message().find("a"),
            std::string::npos);
}

// --------------------------------------------------------- fingerprint

TEST(FingerprintTest, IdentifiesTheRequestStructurally) {
  const api::ExplorationRequest base = small_request();
  const Fingerprint fp = fingerprint_request(base).value();
  EXPECT_FALSE(fp.empty());
  EXPECT_EQ(fp, fingerprint_request(base).value());

  // Same content under a different display name is a different campaign
  // (the CSV rows carry the name).
  api::ExplorationRequest renamed = small_request();
  renamed.traces[0] =
      api::TraceRef::memory("other", trace::stride_trace(0, 4096, 256));
  EXPECT_NE(fp, fingerprint_request(renamed).value());

  api::ExplorationRequest regeom = small_request();
  regeom.geometries = {api::GeometrySpec(2048, 4)};
  EXPECT_NE(fp, fingerprint_request(regeom).value());

  // perm:2 and perm:fanin=2 lower identically but label differently.
  api::ExplorationRequest relabel = small_request();
  relabel.strategies = {api::parse_strategy("perm:2").value()};
  api::ExplorationRequest relabel2 = small_request();
  relabel2.strategies = {api::parse_strategy("perm:fanin=2").value()};
  EXPECT_NE(fingerprint_request(relabel).value(),
            fingerprint_request(relabel2).value());

  api::ExplorationRequest rebits = small_request();
  rebits.hashed_bits = 12;
  EXPECT_NE(fp, fingerprint_request(rebits).value());
}

// Fingerprints are pinned: plan ids, fleet manifests (so --resume work
// directories keep working) and the serving daemon's memo keys all
// depend on these bytes. A request names its trace by content, so every
// kind of ref over the same content under the same name — in memory, a
// v1 or v2 file, eager or streamed — fingerprints the same.
TEST(FingerprintTest, PinnedForEveryTraceKind) {
  const trace::Trace t = trace::random_trace(0x10000, 300, 4, 3000, 5);
  const std::string v1 = temp_path("xoridx_shard_pinned.v1");
  const std::string v2 = temp_path("xoridx_shard_pinned.v2");
  tracestore::save_trace_v1(v1, t);
  tracestore::save_trace_v2(v2, t);

  const std::string expected = "dfc9920d9fcda201a1051f15d7db1369";
  for (const api::TraceRef& ref :
       {api::TraceRef::memory("pinned", t),
        api::TraceRef::file("pinned", v1),
        api::TraceRef::streaming("pinned", v1),
        api::TraceRef::file("pinned", v2),
        api::TraceRef::streaming("pinned", v2)}) {
    api::ExplorationRequest request;
    request.traces = {ref};
    request.geometries = {api::GeometrySpec(1024, 4),
                          api::GeometrySpec(4096, 4)};
    request.strategies =
        api::parse_strategies("base,perm:2:restarts=1:seed=9,bitselect:exact")
            .value();
    EXPECT_EQ(fingerprint_request(request).value().to_string(), expected)
        << ref.path();
    EXPECT_EQ(ShardPlan::partition(request, 2).value().fingerprint()
                  .to_string(),
              expected)
        << ref.path();
  }
  std::remove(v1.c_str());
  std::remove(v2.c_str());
}

// ---------------------------------------------------------------- plan

api::ExplorationRequest grid_request(std::size_t traces,
                                     std::size_t geometries) {
  api::ExplorationRequest request;
  for (std::size_t t = 0; t < traces; ++t)
    request.traces.push_back(api::TraceRef::memory(
        "t" + std::to_string(t),
        trace::stride_trace(t * 64, 4096, 100 + 40 * t)));
  const std::uint32_t sizes[] = {512, 1024, 2048, 4096};
  for (std::size_t g = 0; g < geometries; ++g)
    request.geometries.emplace_back(sizes[g % 4] << (g / 4), 4);
  request.strategies = api::parse_strategies("base,perm:2").value();
  return request;
}

TEST(PlanTest, RangesTileTheRequestForEveryShardCount) {
  for (const std::uint32_t n : {1u, 2u, 3u, 7u, 16u}) {
    const api::ExplorationRequest request = grid_request(3, 2);
    const api::Result<ShardPlan> plan = ShardPlan::partition(request, n);
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();
    EXPECT_EQ(plan->total_cells(), 3u * 2u * 2u);
    std::vector<CellRange> all;
    for (std::uint32_t s = 1; s <= n; ++s)
      for (const CellRange& r : plan->ranges(s)) all.push_back(r);
    std::sort(all.begin(), all.end(),
              [](const CellRange& a, const CellRange& b) {
                return a.begin < b.begin;
              });
    std::uint64_t expected = 0;
    for (const CellRange& r : all) {
      EXPECT_EQ(r.begin, expected) << "n=" << n;
      expected = r.end;
    }
    EXPECT_EQ(expected, plan->total_cells()) << "n=" << n;
  }
}

TEST(PlanTest, DeterministicAndAffine) {
  const api::ExplorationRequest request = grid_request(6, 3);
  const ShardPlan a = ShardPlan::partition(request, 3).value();
  const ShardPlan b = ShardPlan::partition(request, 3).value();
  for (std::uint32_t s = 1; s <= 3; ++s) {
    EXPECT_EQ(a.ranges(s), b.ranges(s));
    EXPECT_GT(a.ranges(s).size(), 0u) << "shard " << s << " left empty";
    // Affinity: these traces all fit the per-shard budget, so each keeps
    // its geometries on one shard.
    for (const ShardPlan::TraceSlice& slice : a.slices(s))
      EXPECT_EQ(slice.geometries.size(), 3u);
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(PlanTest, BalancesByCostNotCellCount) {
  // One heavy trace (16x the accesses) plus light ones: round-robin by
  // cell count would put ~equal cell counts everywhere; cost balancing
  // must not put the heavy trace together with a big slice of the rest.
  api::ExplorationRequest request;
  request.traces.push_back(api::TraceRef::memory(
      "heavy", trace::stride_trace(0, 4096, 8000)));
  for (int t = 0; t < 4; ++t)
    request.traces.push_back(api::TraceRef::memory(
        "light" + std::to_string(t), trace::stride_trace(0, 4096, 500)));
  request.geometries = {api::GeometrySpec(1024, 4)};
  request.strategies = api::parse_strategies("base,perm:2").value();

  const ShardPlan plan = ShardPlan::partition(request, 2).value();
  const double c1 = plan.estimated_cost(1);
  const double c2 = plan.estimated_cost(2);
  // Heavy (8000) vs 4 x 500: the only balanced split puts the heavy
  // trace alone on one shard.
  const double heavy = std::max(c1, c2);
  const double light = std::min(c1, c2);
  EXPECT_GT(light, 0.0);
  EXPECT_LT(heavy / light, 8000.0 / 2000.0 + 0.01);
}

TEST(PlanTest, InvalidRequestsAreRejected) {
  api::ExplorationRequest request;
  EXPECT_EQ(ShardPlan::partition(request, 2).status().code(),
            api::StatusCode::invalid_argument);
  request = small_request();
  EXPECT_EQ(ShardPlan::partition(request, 0).status().code(),
            api::StatusCode::invalid_argument);
  request.strategies = {api::Strategy::deferred("warp9")};
  EXPECT_EQ(ShardPlan::partition(request, 2).status().code(),
            api::StatusCode::parse_error);
  request = small_request();
  request.traces.push_back(
      api::TraceRef::streaming("ghost", temp_path("xoridx_shard_ghost.v2")));
  EXPECT_EQ(ShardPlan::partition(request, 2).status().code(),
            api::StatusCode::not_found);
}

// ------------------------------------------- differential merge harness

/// Build a randomized request from a seeded generator: 1-4 traces of
/// different shapes, 1-3 geometries, 2-4 strategies.
api::ExplorationRequest random_request(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  api::ExplorationRequest request;
  const std::size_t traces = 1 + rng() % 4;
  for (std::size_t t = 0; t < traces; ++t) {
    const std::string name = "r" + std::to_string(seed) + "t" +
                             std::to_string(t);
    switch (rng() % 4) {
      case 0:
        request.traces.push_back(api::TraceRef::memory(
            name, trace::stride_trace(rng() % 1024, 4096,
                                      200 + rng() % 1200)));
        break;
      case 1:
        request.traces.push_back(api::TraceRef::memory(
            name, trace::interleaved_arrays_trace(0, 4096, 2,
                                                  64 + rng() % 128, 4,
                                                  2 + rng() % 4)));
        break;
      case 2:
        request.traces.push_back(api::TraceRef::memory(
            name, trace::matrix_walk_trace(0, 8 + rng() % 8, 16, 4,
                                           1 + rng() % 3)));
        break;
      default:
        request.traces.push_back(api::TraceRef::memory(
            name, trace::random_trace(0, 512, 4, 400 + rng() % 800,
                                      rng())));
    }
  }
  const std::uint32_t geometry_pool[] = {512, 1024, 2048};
  const std::size_t geometries = 1 + rng() % 3;
  for (std::size_t g = 0; g < geometries; ++g)
    request.geometries.emplace_back(geometry_pool[(rng() % 3 + g) % 3], 4);
  // Dedup geometries (same geometry twice is legal but makes the CSV
  // ambiguous to eyeball); keep request order.
  for (std::size_t g = 1; g < request.geometries.size();) {
    bool dup = false;
    for (std::size_t h = 0; h < g; ++h)
      if (request.geometries[h].size_bytes ==
          request.geometries[g].size_bytes)
        dup = true;
    if (dup)
      request.geometries.erase(request.geometries.begin() +
                               static_cast<std::ptrdiff_t>(g));
    else
      ++g;
  }
  const char* pool[] = {"base",         "fa",        "3c",
                        "perm:2",       "perm",      "xor:revert",
                        "bitselect",    "bitselect:est"};
  const std::size_t strategies = 2 + rng() % 3;
  for (std::size_t s = 0; s < strategies; ++s)
    request.strategies.push_back(
        api::parse_strategy(pool[rng() % std::size(pool)]).value());
  return request;
}

TEST(DifferentialMerge, RandomRequestsMatchUnshardedRunExactly) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const api::ExplorationRequest request = random_request(seed);
    const api::Result<Report> full = run_campaign(request);
    ASSERT_TRUE(full.ok()) << full.status().to_string();
    EXPECT_EQ(full->cells.size(), full->total_cells);
    EXPECT_EQ(full->error_count(), 0u);

    // And the shard reference run matches the plain Explorer facade.
    std::ostringstream explorer_csv;
    api::CsvSink sink(explorer_csv);
    api::ExplorationRequest sinked = request;
    sinked.sink = &sink;
    const api::Result<api::Report> direct = api::Explorer::explore(sinked);
    ASSERT_TRUE(direct.ok()) << direct.status().to_string();
    EXPECT_EQ(csv_of(*full), explorer_csv.str()) << "seed " << seed;

    for (const std::uint32_t n : {1u, 2u, 3u, 7u}) {
      const std::string tag =
          std::to_string(seed) + "n" + std::to_string(n);
      const api::Result<Report> merged = run_via_shards(request, n, tag);
      ASSERT_TRUE(merged.ok())
          << "seed " << seed << " n " << n << ": "
          << merged.status().to_string();
      EXPECT_EQ(*merged, *full) << "seed " << seed << " n " << n;
      EXPECT_EQ(csv_of(*merged), csv_of(*full))
          << "seed " << seed << " n " << n;
    }
  }
}

TEST(DifferentialMerge, MergedReportFileIsByteIdenticalToUnshardedRun) {
  const api::ExplorationRequest request = random_request(44);
  Report full = run_campaign(request).value();
  Report merged = run_via_shards(request, 3, "bytes").value();
  // The obs sections carry wall times and per-process counter totals
  // that legitimately differ between a 1-shard and a 3-shard execution;
  // byte identity is a claim about the result cells, so strip them.
  full.obs.reset();
  merged.obs.reset();
  const std::string full_path = temp_path("xoridx_shard_bytes_full.rpt");
  const std::string merged_path = temp_path("xoridx_shard_bytes_merged.rpt");
  ASSERT_TRUE(save_report(full, full_path).ok());
  ASSERT_TRUE(save_report(merged, merged_path).ok());
  EXPECT_EQ(read_file(full_path), read_file(merged_path));
  EXPECT_GT(read_file(full_path).size(), 0u);
}

class ExplodingSource final : public tracestore::TraceSource {
 public:
  std::size_t next_batch(std::span<trace::Access>) override {
    throw std::runtime_error("simulated remote fetch failure");
  }
  void reset() override {}
  [[nodiscard]] std::uint64_t size() const override { return 64; }
};

api::ExplorationRequest failing_request() {
  api::ExplorationRequest request;
  request.traces.push_back(
      api::TraceRef::memory("good", trace::stride_trace(0, 4096, 300)));
  tracestore::TraceId fake_id;
  fake_id.lo = 0xdead;
  fake_id.hi = 0xbeef;
  request.traces.push_back(api::TraceRef::source(
      "exploding", [] { return std::make_unique<ExplodingSource>(); },
      fake_id));
  request.geometries = {api::GeometrySpec(1024, 4),
                        api::GeometrySpec(2048, 4)};
  request.strategies = api::parse_strategies("base,perm:2").value();
  return request;
}

TEST(DifferentialMerge, FailingCellsAreRecordedAndMergeIdentically) {
  const api::ExplorationRequest request = failing_request();
  const api::Result<Report> full = run_campaign(request);
  ASSERT_TRUE(full.ok()) << full.status().to_string();
  EXPECT_EQ(full->cells.size(), 8u);
  // All four exploding cells fail, each with its own attribution; the
  // good trace's cells are all present.
  EXPECT_EQ(full->error_count(), 4u);
  for (const Cell& cell : full->cells) {
    if (cell.ok()) {
      EXPECT_EQ(cell.row().trace_name, "good");
    } else {
      EXPECT_EQ(cell.error().trace, "exploding");
      EXPECT_EQ(cell.error().code, api::StatusCode::io_error);
      EXPECT_NE(cell.error().message.find("simulated remote fetch failure"),
                std::string::npos);
      EXPECT_FALSE(cell.error().geometry.empty());
      EXPECT_FALSE(cell.error().strategy.empty());
    }
  }

  for (const std::uint32_t n : {2u, 3u}) {
    const api::Result<Report> merged =
        run_via_shards(request, n, "fail" + std::to_string(n));
    ASSERT_TRUE(merged.ok()) << merged.status().to_string();
    EXPECT_EQ(*merged, *full) << "n " << n;
    EXPECT_EQ(csv_of(*merged), csv_of(*full)) << "n " << n;
  }
}

// --------------------------------------------- acceptance: table2 small

TEST(DifferentialMerge, Table2SmallThreeShardCsvIdentity) {
  // The CI smoke job runs this same flow as three OS processes; this is
  // the in-process pin of the acceptance criterion.
  api::ExplorationRequest request;
  request.hashed_bits = 16;
  for (const std::string& name :
       workloads::workload_names(workloads::Suite::table2)) {
    workloads::Workload w =
        workloads::make_workload(name, workloads::Scale::small);
    request.traces.push_back(
        api::TraceRef::memory(w.name, std::move(w.data)));
  }
  for (const std::uint32_t bytes : {1024u, 4096u, 16384u})
    request.geometries.emplace_back(bytes, 4);
  request.strategies = api::parse_strategies("base,perm:2,perm").value();

  std::ostringstream full_csv;
  api::CsvSink sink(full_csv);
  api::ExplorationRequest sinked = request;
  sinked.sink = &sink;
  ASSERT_TRUE(api::Explorer::explore(sinked).ok());

  const api::Result<Report> merged = run_via_shards(request, 3, "table2");
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  EXPECT_EQ(csv_of(*merged), full_csv.str());
  EXPECT_NE(full_csv.str().find("dijkstra"), std::string::npos);
}

// ------------------------------------------------------- corrupt input

Report sample_report(const std::string& tag) {
  const api::ExplorationRequest request = small_request();
  const Report report = run_campaign(request).value();
  const std::string path = temp_path("xoridx_shard_corrupt_" + tag + ".rpt");
  EXPECT_TRUE(save_report(report, path).ok());
  return report;
}

TEST(CorruptReports, TruncationIsRejectedAtEveryLength) {
  const api::ExplorationRequest request = small_request();
  const Report report = run_campaign(request).value();
  const std::string path = temp_path("xoridx_shard_trunc.rpt");
  ASSERT_TRUE(save_report(report, path).ok());
  const std::string data = read_file(path);
  ASSERT_GT(data.size(), 32u);
  // Every strict prefix must fail with a Status — never crash, never
  // return a partial report.
  for (std::size_t keep = 0; keep < data.size(); ++keep) {
    const api::Result<Report> decoded = decode_report(data.substr(0, keep));
    ASSERT_FALSE(decoded.ok()) << "kept " << keep << " bytes";
    EXPECT_EQ(decoded.status().code(), api::StatusCode::io_error);
  }
  // The same through a file: the error names the path.
  const std::string trunc_path = temp_path("xoridx_shard_trunc_cut.rpt");
  write_file(trunc_path, data.substr(0, data.size() / 2));
  const api::Result<Report> loaded = load_report(trunc_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), api::StatusCode::io_error);
  EXPECT_NE(loaded.status().message().find(trunc_path), std::string::npos);
}

TEST(CorruptReports, BitFlipsFailTheChecksum) {
  sample_report("flip");
  const std::string path = temp_path("xoridx_shard_corrupt_flip.rpt");
  const std::string data = read_file(path);
  for (const std::size_t at :
       {std::size_t{20}, data.size() / 2, data.size() - 12}) {
    std::string flipped = data;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x10);
    const std::string flip_path = temp_path("xoridx_shard_flip_out.rpt");
    write_file(flip_path, flipped);
    const api::Result<Report> loaded = load_report(flip_path);
    ASSERT_FALSE(loaded.ok()) << "flip at " << at;
    EXPECT_EQ(loaded.status().code(), api::StatusCode::io_error);
  }
  // A flip plus a refreshed checksum is caught by structural checks or
  // the merge-level guards, not silently merged — exercised below.
}

TEST(CorruptReports, BinaryReportsAndFormatVersionAreNamed) {
  sample_report("magic");
  const std::string path = temp_path("xoridx_shard_corrupt_magic.rpt");
  std::string data = read_file(path);

  // A binary report of an older build: its 8-byte magic, a little-endian
  // format word, then header fields.
  const std::string binary = std::string("XORIDXR1\x02\x00", 10) +
                             std::string(64, '\0');
  const std::string binary_path = temp_path("xoridx_shard_binary_out.rpt");
  write_file(binary_path, binary);
  api::Result<Report> loaded = load_report(binary_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), api::StatusCode::io_error);
  EXPECT_NE(loaded.status().message().find("binary report from an older"),
            std::string::npos)
      << loaded.status().to_string();
  EXPECT_NE(loaded.status().message().find(binary_path), std::string::npos);

  const std::string future = edit_json(data, "\"shard_report\":3,",
                                       "\"shard_report\":9,");
  const std::string future_path = temp_path("xoridx_shard_future_out.rpt");
  write_file(future_path, future);
  loaded = load_report(future_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unsupported"),
            std::string::npos);

  EXPECT_EQ(load_report(temp_path("xoridx_shard_nope.rpt")).status().code(),
            api::StatusCode::not_found);
}

TEST(CorruptReports, MergeRejectsSkewMismatchDuplicatesAndGaps) {
  const api::ExplorationRequest request = grid_request(3, 2);
  const ShardPlan plan = ShardPlan::partition(request, 3).value();
  std::vector<Report> shards;
  for (std::uint32_t i = 1; i <= 3; ++i)
    shards.push_back(run_shard(request, plan, i).value());

  // Version skew: shard 2 written by a different library version. Patch
  // the minor-version field on disk and refresh the checksum so only the
  // merge-level check can catch it.
  {
    const std::string path = temp_path("xoridx_shard_skew.rpt");
    ASSERT_TRUE(save_report(shards[1], path).ok());
    const api::Version v = api::version();
    const auto version_json = [&v](int minor) {
      return "\"written_by\":[" + std::to_string(v.major) + "," +
             std::to_string(minor) + "," + std::to_string(v.patch) + "]";
    };
    write_file(path, edit_json(read_file(path), version_json(v.minor),
                               version_json(v.minor + 1)));
    const api::Result<Report> skewed = load_report(path);
    ASSERT_TRUE(skewed.ok()) << skewed.status().to_string();
    const api::Result<Report> merged =
        merge_reports({shards[0], *skewed, shards[2]});
    ASSERT_FALSE(merged.ok());
    EXPECT_NE(merged.status().message().find("version skew"),
              std::string::npos);
  }

  // Fingerprint mismatch: a shard of a different request.
  {
    const Report other = run_campaign(small_request()).value();
    const api::Result<Report> merged =
        merge_reports({shards[0], shards[1], other});
    ASSERT_FALSE(merged.ok());
    EXPECT_NE(merged.status().message().find("different request"),
              std::string::npos);
  }

  // Duplicate and missing shard indices.
  {
    const api::Result<Report> dup =
        merge_reports({shards[0], shards[1], shards[1]});
    ASSERT_FALSE(dup.ok());
    EXPECT_NE(dup.status().message().find("duplicate shard index 2"),
              std::string::npos);
    const api::Result<Report> missing = merge_reports({shards[0], shards[2]});
    ASSERT_FALSE(missing.ok());
    EXPECT_NE(missing.status().message().find("missing shard 2"),
              std::string::npos);
  }

  EXPECT_EQ(merge_reports({}).status().code(),
            api::StatusCode::invalid_argument);

  // A crafted num_shards (here UINT32_MAX, checksum refreshed) must get
  // a descriptive Status, not a crash or an N-sized allocation.
  {
    const std::string path = temp_path("xoridx_shard_huge_n.rpt");
    ASSERT_TRUE(save_report(shards[0], path).ok());
    write_file(path, edit_json(read_file(path), "\"num_shards\":3,",
                               "\"num_shards\":4294967295,"));
    const api::Result<Report> huge = load_report(path);
    ASSERT_TRUE(huge.ok()) << huge.status().to_string();
    const api::Result<Report> merged = merge_reports({*huge});
    ASSERT_FALSE(merged.ok());
    EXPECT_NE(merged.status().message().find("missing shard"),
              std::string::npos);
  }

  // The untouched trio still merges.
  EXPECT_TRUE(merge_reports({shards[0], shards[1], shards[2]}).ok());
}

// -------------------------------------------------- incremental merger

TEST(IncrementalMergerTest, ValidatesAtAddAndStaysUsableAfterReject) {
  const api::ExplorationRequest request = grid_request(3, 2);
  const ShardPlan plan = ShardPlan::partition(request, 3).value();
  std::vector<Report> shards;
  for (std::uint32_t i = 1; i <= 3; ++i)
    shards.push_back(run_shard(request, plan, i).value());

  IncrementalMerger merger;
  EXPECT_FALSE(merger.complete());
  EXPECT_EQ(merger.landed(), 0u);
  ASSERT_TRUE(merger.add(shards[0]).ok());
  EXPECT_TRUE(merger.seen(1));
  EXPECT_FALSE(merger.seen(2));
  EXPECT_EQ(merger.cells_landed(), shards[0].cells.size());

  // A duplicate is rejected at add() time — and the rejection leaves
  // the merger unchanged, so the campaign can still finish.
  const api::Status dup = merger.add(shards[0]);
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.message().find("duplicate shard index 1"),
            std::string::npos);
  EXPECT_EQ(merger.landed(), 1u);

  // A shard of a different request bounces the same way.
  const Report foreign = run_campaign(small_request()).value();
  const api::Status cross = merger.add(foreign);
  ASSERT_FALSE(cross.ok());
  EXPECT_NE(cross.message().find("different request"), std::string::npos);

  ASSERT_TRUE(merger.add(shards[2]).ok());
  ASSERT_TRUE(merger.add(shards[1]).ok());
  EXPECT_TRUE(merger.complete());
  const api::Result<Report> merged = merger.finish();
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  EXPECT_TRUE(*merged == *merge_reports({shards[0], shards[1], shards[2]}));
}

TEST(IncrementalMergerTest, PinnedFingerprintRejectsForeignFirstReport) {
  // Pinning the expected fingerprint up front catches a wrong-campaign
  // report even when it is the FIRST to land — the fleet dispatcher
  // relies on this so a stale work dir cannot seed the merge.
  const api::ExplorationRequest request = grid_request(3, 2);
  const ShardPlan plan = ShardPlan::partition(request, 3).value();
  IncrementalMerger merger(plan.fingerprint(), 3);

  const Report foreign = run_campaign(small_request()).value();
  const api::Status rejected = merger.add(foreign);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.message().find("different request"), std::string::npos);

  // Shape pinning: a right-campaign report claiming the wrong shard
  // count is caught before any base report exists.
  const ShardPlan two = ShardPlan::partition(request, 2).value();
  const api::Status misshapen = merger.add(run_shard(request, two, 1).value());
  ASSERT_FALSE(misshapen.ok());

  for (std::uint32_t i = 1; i <= 3; ++i)
    ASSERT_TRUE(merger.add(run_shard(request, plan, i).value()).ok());
  EXPECT_TRUE(merger.complete());
  EXPECT_TRUE(merger.finish().ok());
}

TEST(IncrementalMergerTest, FinishNamesMissingShardsAndEmptyMerge) {
  const api::ExplorationRequest request = grid_request(3, 2);
  const ShardPlan plan = ShardPlan::partition(request, 3).value();

  IncrementalMerger empty;
  EXPECT_EQ(empty.finish().status().code(),
            api::StatusCode::invalid_argument);

  IncrementalMerger merger;
  ASSERT_TRUE(merger.add(run_shard(request, plan, 1).value()).ok());
  ASSERT_TRUE(merger.add(run_shard(request, plan, 3).value()).ok());
  EXPECT_FALSE(merger.complete());
  const api::Result<Report> merged = merger.finish();
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("missing shard 2"),
            std::string::npos);
}

// ----------------------------------------- seeded-restart determinism

TEST(RestartDeterminism, GrammarParsesRestartsAndSeed) {
  const api::Strategy s =
      api::parse_strategy("perm:restarts=4:seed=99").value();
  const auto* job =
      std::get_if<engine::OptimizeIndexJob>(&s.config->payload);
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->random_restarts, 4);
  EXPECT_EQ(job->seed, 99u);

  // Defaults match SearchOptions; non-search strategies reject the
  // options, naming them.
  const api::Strategy plain = api::parse_strategy("xor").value();
  const auto* plain_job =
      std::get_if<engine::OptimizeIndexJob>(&plain.config->payload);
  ASSERT_NE(plain_job, nullptr);
  EXPECT_EQ(plain_job->random_restarts, 0);
  EXPECT_EQ(plain_job->seed, search::SearchOptions{}.seed);
  for (const char* bad :
       {"base:restarts=2", "fa:seed=1", "bitselect:exact:restarts=1",
        "perm:restarts=-1", "perm:seed=banana"}) {
    const api::Result<api::Strategy> parsed = api::parse_strategy(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), api::StatusCode::parse_error);
  }
}

TEST(RestartDeterminism, SameSeedSameMatrixAcrossRunsAndShards) {
  // Restarted hill climbing is the one nondeterminism class sharding
  // could silently mask: pin that a fixed SearchConfig seed produces the
  // identical chosen matrix on repeated runs, and that running the cell
  // inside a shard changes nothing.
  api::ExplorationRequest request;
  request.traces.push_back(api::TraceRef::memory(
      "a", trace::random_trace(0, 512, 4, 1500, 0xa)));
  request.traces.push_back(api::TraceRef::memory(
      "b", trace::random_trace(0, 512, 4, 1500, 0xb)));
  request.geometries = {api::GeometrySpec(1024, 4)};
  request.strategies = {
      api::parse_strategy("perm:restarts=3:seed=7").value()};

  const Report first = run_campaign(request).value();
  const Report second = run_campaign(request).value();
  EXPECT_EQ(first, second);
  for (const Cell& cell : first.cells) {
    ASSERT_TRUE(cell.ok());
    EXPECT_FALSE(cell.row().function_description.empty());
  }

  const Report sharded = run_via_shards(request, 2, "restarts").value();
  EXPECT_EQ(sharded, first);
  for (std::size_t i = 0; i < first.cells.size(); ++i)
    EXPECT_EQ(sharded.cells[i].row().function_description,
              first.cells[i].row().function_description);

  // A different seed is allowed to pick a different matrix but must be
  // internally deterministic too.
  api::ExplorationRequest reseeded = request;
  reseeded.strategies = {
      api::parse_strategy("perm:restarts=3:seed=8").value()};
  EXPECT_EQ(run_campaign(reseeded).value(), run_campaign(reseeded).value());
}

// ----------------------------- fleet observability (cross-process obs)

/// Reference fold for the fleet section, written independently of
/// obs::Snapshot::aggregate so the test is a differential and not a
/// tautology: counters summed, gauges max'd, histogram buckets / sums /
/// counts added with maxima max'd, wall clock and peak RSS max'd.
ObsSection fold_reference(const std::vector<Report>& shards) {
  ObsSection expected;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, obs::HistogramSnapshot> histograms;
  for (const Report& shard : shards) {
    if (!shard.obs.has_value()) continue;
    expected.wall_ns = std::max(expected.wall_ns, shard.obs->wall_ns);
    expected.peak_rss_bytes =
        std::max(expected.peak_rss_bytes, shard.obs->peak_rss_bytes);
    for (const auto& [name, value] : shard.obs->snapshot.counters)
      counters[name] += value;
    for (const auto& [name, value] : shard.obs->snapshot.gauges) {
      const auto [it, fresh] = gauges.try_emplace(name, value);
      if (!fresh) it->second = std::max(it->second, value);
    }
    for (const auto& [name, hist] : shard.obs->snapshot.histograms) {
      obs::HistogramSnapshot& agg = histograms[name];
      agg.count += hist.count;
      agg.sum += hist.sum;
      agg.max = std::max(agg.max, hist.max);
      for (std::size_t b = 0; b < hist.buckets.size(); ++b)
        agg.buckets[b] += hist.buckets[b];
    }
  }
  expected.snapshot.counters.assign(counters.begin(), counters.end());
  expected.snapshot.gauges.assign(gauges.begin(), gauges.end());
  expected.snapshot.histograms.assign(histograms.begin(),
                                      histograms.end());
  return expected;
}

/// Run every shard with a freshly reset registry (each worker is its own
/// process in a real fleet), round-trip the reports through disk, and
/// hand back both the per-shard reports and their merge.
struct FleetRun {
  std::vector<Report> shards;
  Report merged;
};

FleetRun run_fleet(const api::ExplorationRequest& request,
                   std::uint32_t num_shards, const std::string& tag) {
  FleetRun run;
  const ShardPlan plan =
      ShardPlan::partition(request, num_shards).value();
  for (std::uint32_t i = 1; i <= num_shards; ++i) {
    obs::registry().reset();
    const Report report = run_shard(request, plan, i).value();
    const std::string path = temp_path("xoridx_fleet_" + tag + "_" +
                                       std::to_string(i) + ".rpt");
    EXPECT_TRUE(save_report(report, path).ok());
    Report loaded = load_report(path).value();
    // The obs section must survive serialization bit-for-bit.
    EXPECT_EQ(loaded.obs, report.obs);
    run.shards.push_back(std::move(loaded));
  }
  std::vector<Report> to_merge = run.shards;
  run.merged = merge_reports(std::move(to_merge)).value();
  return run;
}

TEST(FleetObservability, MergeAggregatesShardSectionsExactly) {
  if (!obs::compiled())
    GTEST_SKIP() << "workers attach no obs section under XORIDX_OBS=OFF";
  for (const std::uint32_t n : {1u, 2u, 3u, 7u}) {
    const api::ExplorationRequest request =
        random_request(0x0b5'0000ull + n);
    const FleetRun fleet =
        run_fleet(request, n, "agg" + std::to_string(n));
    const ObsSection expected = fold_reference(fleet.shards);
    ASSERT_TRUE(fleet.merged.obs.has_value()) << n << " shards";
    EXPECT_EQ(fleet.merged.obs->wall_ns, expected.wall_ns);
    EXPECT_EQ(fleet.merged.obs->peak_rss_bytes, expected.peak_rss_bytes);
    EXPECT_EQ(fleet.merged.obs->snapshot, expected.snapshot);
    // The fleet counter of record: every cell in the grid was finished
    // exactly once across the whole fleet.
    EXPECT_EQ(fleet.merged.obs->snapshot.counter("shard.cells_done"),
              fleet.merged.total_cells)
        << n << " shards";
  }
}

TEST(FleetObservability, FailingCellsAreCountedInTheFleetSnapshot) {
  if (!obs::compiled())
    GTEST_SKIP() << "workers attach no obs section under XORIDX_OBS=OFF";
  const api::ExplorationRequest request = failing_request();
  const FleetRun fleet = run_fleet(request, 3, "fail");
  const ObsSection expected = fold_reference(fleet.shards);
  ASSERT_TRUE(fleet.merged.obs.has_value());
  EXPECT_EQ(fleet.merged.obs->snapshot, expected.snapshot);
  EXPECT_EQ(fleet.merged.obs->snapshot.counter("shard.cells_done"),
            fleet.merged.total_cells);
  EXPECT_EQ(fleet.merged.obs->snapshot.counter("shard.cell_errors"),
            fleet.merged.error_count());
  EXPECT_GT(fleet.merged.error_count(), 0u);
}

TEST(FleetObservability, DisabledMetricsProduceReportsWithoutSections) {
  // The runtime proxy for an obs-off worker: recording disabled means no
  // section — and merge_reports must treat that as "nothing to
  // contribute", not as an error.
  obs::set_metrics_enabled(false);
  const api::Result<Report> report = run_campaign(small_request());
  obs::set_metrics_enabled(true);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->obs.has_value());
  std::vector<Report> shards;
  shards.push_back(*report);
  const api::Result<Report> merged = merge_reports(std::move(shards));
  ASSERT_TRUE(merged.ok());
  EXPECT_FALSE(merged->obs.has_value());
}

TEST(FleetObservability, SectionlessReportsMergeWithSectionedOnes) {
  // A fleet may mix obs-off and obs-on workers: the shard without a
  // section contributes results only, and the fleet section is built
  // from whichever shards carried one.
  api::ExplorationRequest request = small_request();
  request.geometries = {api::GeometrySpec(1024, 4),
                        api::GeometrySpec(2048, 4)};
  const ShardPlan plan = ShardPlan::partition(request, 2).value();
  obs::set_metrics_enabled(false);
  const api::Result<Report> first = run_shard(request, plan, 1);
  obs::set_metrics_enabled(true);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->obs.has_value());
  const Report second = run_shard(request, plan, 2).value();

  // Both round-trip through disk: a section-less report stays section-less.
  std::vector<Report> mixed;
  for (const Report& shard : {*first, second}) {
    const std::string path = temp_path(
        "xoridx_fleet_mixed_" + std::to_string(shard.shard_index) + ".rpt");
    ASSERT_TRUE(save_report(shard, path).ok());
    Report loaded = load_report(path).value();
    EXPECT_EQ(loaded, shard);
    EXPECT_EQ(loaded.obs, shard.obs);
    mixed.push_back(std::move(loaded));
  }
  const api::Result<Report> merged = merge_reports(std::move(mixed));
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  EXPECT_EQ(merged->cells.size(), merged->total_cells);
  if (obs::compiled()) {
    ASSERT_TRUE(second.obs.has_value());
    ASSERT_TRUE(merged->obs.has_value());
    EXPECT_EQ(merged->obs->snapshot, second.obs->snapshot);
  } else {
    EXPECT_FALSE(merged->obs.has_value());
  }
}

TEST(FleetObservability, FutureFormatNamesTheSupportedRange) {
  Report report = run_campaign(small_request()).value();
  report.obs.reset();
  const std::string path = temp_path("xoridx_fleet_future.rpt");
  ASSERT_TRUE(save_report(report, path).ok());
  write_file(path, edit_json(read_file(path), "\"shard_report\":3,",
                             "\"shard_report\":4,"));
  const api::Result<Report> loaded = load_report(path);
  ASSERT_FALSE(loaded.ok());
  // "Too new" must be named as such, with what this build can read, so
  // the operator knows which side to upgrade.
  EXPECT_NE(loaded.status().message().find("unsupported"),
            std::string::npos);
  EXPECT_NE(loaded.status().message().find("v4"), std::string::npos);
  EXPECT_NE(loaded.status().message().find("reads v3"), std::string::npos);
}

}  // namespace
}  // namespace xoridx::shard
