// Deterministic mutation test for the decoders of untrusted bytes: shard
// reports, the fleet manifest and v1/v2 trace files. Each seed is a real
// artifact. Reports and the manifest take every truncation, a bit flip at
// every byte (with and without a re-sealed checksum), splices, and, at
// every node of the JSON document, type swaps, negative and oversized
// numbers, and missing, duplicated and unknown members; every mutant must
// decode to an io_error or to a value that passes the decoder's
// structural checks. Trace files take every truncation and a bit flip at
// every byte; opening and reading each mutant must throw
// std::runtime_error or deliver exactly the accesses it declares. No
// mutant may crash or allocate more than a fixed multiple of its size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "heap_counter.hpp"
#include "io/atomic_file.hpp"
#include "serve/json.hpp"
#include "trace/generators.hpp"
#include "tracestore/store.hpp"
#include "tracestore/writer.hpp"
#include "xoridx/fleet.hpp"
#include "xoridx/obs.hpp"
#include "xoridx/shard.hpp"

namespace xoridx {
namespace {

using serve::JsonValue;

// Peak heap of one decode may not exceed this multiple of its input plus
// a fixed slack. A parsed JSON value costs ~100 bytes, and the smallest
// JSON value takes 2 bytes of input ("0,").
constexpr std::size_t heap_bytes_per_input_byte = 256;
constexpr std::size_t heap_slack_bytes = 256 * 1024;

class ExplodingSource final : public tracestore::TraceSource {
 public:
  std::size_t next_batch(std::span<trace::Access>) override {
    throw std::runtime_error("simulated remote fetch failure");
  }
  void reset() override {}
  [[nodiscard]] std::uint64_t size() const override { return 64; }
};

/// A real multi-cell campaign in which one trace fails every cell.
shard::Report seed_report(bool with_obs) {
  api::ExplorationRequest request;
  request.traces.push_back(
      api::TraceRef::memory("stride", trace::stride_trace(0, 4096, 300)));
  tracestore::TraceId fake_id;
  fake_id.lo = 0xdead;
  fake_id.hi = 0xbeef;
  request.traces.push_back(api::TraceRef::source(
      "exploding\nline two", [] { return std::make_unique<ExplodingSource>(); },
      fake_id));
  request.geometries = {api::GeometrySpec(1024, 4)};
  request.strategies = api::parse_strategies("base,perm:2").value();
  obs::registry().reset();
  shard::Report report = shard::run_campaign(request).value();
  EXPECT_GT(report.error_count(), 0u);
  EXPECT_GT(report.cells.size(), report.error_count());
  if (!with_obs) report.obs.reset();
  return report;
}

fleet::Manifest seed_manifest() {
  fleet::Manifest manifest;
  manifest.fingerprint = {0x0123456789abcdefull, 0xfedcba9876543210ull};
  manifest.num_shards = 3;
  manifest.total_cells = 12;
  manifest.attempts = {1, 0, 2};
  return manifest;
}

std::string body_of(const std::string& artifact) {
  return artifact.substr(0, artifact.rfind("\nchecksum "));
}

/// Tallies the mutants of one seed.
struct Tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Decode one mutant with `decode`, which returns the Status of the
/// decode and, on success, checks the decoded value itself. A non-io_error
/// failure or a heap peak above the bound fails the test.
void run_mutant(const std::string& bytes, Tally& tally,
                const std::function<api::Status(const std::string&)>& decode,
                const std::string& what) {
  const std::size_t before = heap::reset_peak();
  const api::Status status = decode(bytes);
  const std::size_t used = heap::peak() - before;
  EXPECT_LE(used, heap_bytes_per_input_byte * bytes.size() + heap_slack_bytes)
      << what;
  if (status.ok()) {
    ++tally.accepted;
  } else {
    ++tally.rejected;
    EXPECT_EQ(status.code(), api::StatusCode::io_error)
        << what << ": " << status.to_string();
  }
}

api::Status decode_report_checked(const std::string& bytes) {
  const api::Result<shard::Report> report = shard::decode_report(bytes);
  if (!report.ok()) return report.status();
  // A decoded report must be one the merger accepts (check_structure
  // plus the identity checks) and must re-encode to the same bytes.
  shard::IncrementalMerger merger;
  EXPECT_TRUE(merger.add(*report).ok());
  EXPECT_EQ(shard::encode_report(*report), bytes);
  return {};
}

api::Status decode_manifest_checked(const std::string& bytes) {
  const api::Result<fleet::Manifest> manifest = fleet::decode_manifest(bytes);
  if (!manifest.ok()) return manifest.status();
  EXPECT_GT(manifest->num_shards, 0u);
  EXPECT_EQ(manifest->attempts.size(), manifest->num_shards);
  EXPECT_EQ(fleet::encode_manifest(*manifest), bytes);
  return {};
}

// ------------------------------------------------------ byte mutations

/// Every truncation and an unsealed bit flip at every byte must be
/// rejected: that is the checksum's job. With the checksum re-sealed, a
/// flip must give an io_error or a valid value.
Tally byte_mutations(
    const std::string& seed,
    const std::function<api::Status(const std::string&)>& decode) {
  Tally strict;
  Tally sealed;
  for (std::size_t keep = 0; keep < seed.size(); ++keep)
    run_mutant(seed.substr(0, keep), strict, decode,
               "truncated to " + std::to_string(keep));
  const std::string body = body_of(seed);
  for (std::size_t at = 0; at < seed.size(); ++at) {
    std::string flipped = seed;
    flipped[at] = static_cast<char>(flipped[at] ^ (1u << (at % 8)));
    run_mutant(flipped, strict, decode, "flip at " + std::to_string(at));
    if (at < body.size())
      run_mutant(io::seal_checksum(body_of(flipped)), sealed, decode,
                 "sealed flip at " + std::to_string(at));
  }
  EXPECT_EQ(strict.accepted, 0u) << "a truncation or unsealed flip loaded";
  EXPECT_GT(sealed.rejected, 0u);
  return sealed;
}

// ------------------------------------------------------ tree mutations

enum class Op { replace, drop, duplicate, add_member };

/// Copy of `v` with the node numbered `target` in pre-order (the root
/// is 0) replaced, dropped from its parent, repeated in its parent, or,
/// if it is an object, given one unknown member. `next` numbers nodes.
JsonValue mutate(const JsonValue& v, std::size_t& next, std::size_t target,
                 Op op, const JsonValue& with) {
  const std::size_t me = next++;
  if (!v.is_object() && !v.is_array())
    return me == target && op == Op::replace ? with : v;
  JsonValue out = v.is_object() ? JsonValue::object() : JsonValue::array();
  const auto add = [&](const std::string* key, const JsonValue& child) {
    const bool hit = next == target;
    JsonValue copy = mutate(child, next, target, op, with);
    if (hit && op == Op::drop) return;
    if (hit && op == Op::duplicate)
      key != nullptr ? out.set(*key, copy) : out.push_back(copy);
    key != nullptr ? out.set(*key, std::move(copy))
                   : out.push_back(std::move(copy));
  };
  for (const JsonValue::Member& m : v.members()) add(&m.first, m.second);
  for (const JsonValue& item : v.items()) add(nullptr, item);
  if (me == target && op == Op::add_member && v.is_object())
    out.set("unknown_member", JsonValue(0));
  return me == target && op == Op::replace ? with : out;
}

/// Values of every kind, and numbers at and past the edges of the
/// integer fields, including spellings no serializer emits.
const std::vector<std::string>& replacements() {
  static const std::vector<std::string> texts = {
      "\"x\"", "true", "null", "[]", "{}", "1.5", "-1", "0", "4294967296",
      "-9223372036854775808", "9223372036854775807", "18446744073709551616",
      "1e300", "-1e300", "1e999", "-0", "01", "[0,0,0]", "{\"a\":1}"};
  return texts;
}

Tally tree_mutations(
    const std::string& seed,
    const std::function<api::Status(const std::string&)>& decode) {
  const JsonValue doc = serve::parse_json(body_of(seed)).value();
  std::size_t nodes = 0;
  (void)mutate(doc, nodes, ~std::size_t{0}, Op::replace, JsonValue());
  // A sentinel string stands in for the replacement text, so texts the
  // serializer cannot produce (1e999, 01) reach the parser verbatim.
  const JsonValue sentinel("\x01");
  const std::string quoted_sentinel = sentinel.serialize();
  Tally tally;
  for (std::size_t target = 0; target < nodes; ++target) {
    const auto emit = [&](Op op, const std::string& text) {
      std::size_t next = 0;
      std::string body = mutate(doc, next, target, op, sentinel).serialize();
      const std::size_t at = body.find(quoted_sentinel);
      if (at != std::string::npos)
        body.replace(at, quoted_sentinel.size(), text);
      run_mutant(io::seal_checksum(body), tally, decode,
                 "node " + std::to_string(target) + " -> " + text);
    };
    for (const std::string& text : replacements()) emit(Op::replace, text);
    emit(Op::drop, "");
    emit(Op::duplicate, "");
    emit(Op::add_member, "");
  }
  EXPECT_GT(tally.rejected, 0u);
  return tally;
}

// ------------------------------------------------------------- reports

TEST(ReportMutation, ByteMutationsAreRejectedOrValid) {
  for (const bool with_obs : {false, true}) {
    const std::string seed = shard::encode_report(seed_report(with_obs));
    ASSERT_TRUE(decode_report_checked(seed).ok());
    const Tally sealed = byte_mutations(seed, decode_report_checked);
    // Some sealed flips only change a digit of a counter and must load.
    EXPECT_GT(sealed.accepted, 0u) << "obs " << with_obs;
  }
}

TEST(ReportMutation, TreeMutationsAreRejectedOrValid) {
  for (const bool with_obs : {false, true})
    tree_mutations(shard::encode_report(seed_report(with_obs)),
                   decode_report_checked);
}

TEST(ReportMutation, SplicesAreRejectedOrValid) {
  // A report spliced with itself (a byte range repeated or cut out) and
  // with a manifest, re-sealed.
  const std::string report = body_of(shard::encode_report(seed_report(true)));
  const std::string manifest =
      body_of(fleet::encode_manifest(seed_manifest()));
  Tally tally;
  for (std::size_t cut = 0; cut < report.size(); cut += 5) {
    const std::string where = "splice at " + std::to_string(cut);
    for (const std::string& spliced :
         {report.substr(0, cut) + report.substr(cut / 2),
          report.substr(0, cut / 2) + report.substr(cut),
          report.substr(0, cut) + manifest.substr(cut % manifest.size()),
          manifest.substr(0, cut % manifest.size()) + report.substr(cut)})
      run_mutant(io::seal_checksum(spliced), tally, decode_report_checked,
                 where);
  }
  EXPECT_GT(tally.rejected, 0u);
}

TEST(ReportMutation, CellCountsTheFileCannotHoldAreRejected) {
  const shard::Report report = seed_report(false);
  // A grid of 2^40 cells whose ranges claim all of them: the decoder must
  // compare against the cells actually present, never allocate for the
  // claim.
  shard::Report huge = report;
  huge.trace_count = 1u << 20;
  huge.geometry_count = 1u << 10;
  huge.strategy_count = 1u << 10;
  huge.total_cells = std::uint64_t{1} << 40;
  huge.ranges = {{0, huge.total_cells}};
  Tally tally;
  run_mutant(shard::encode_report(huge), tally, decode_report_checked,
             "2^40 cells");
  // Ranges that end past the grid, and a range count past the cells.
  shard::Report past = report;
  past.ranges = {{0, report.total_cells + 1}};
  run_mutant(shard::encode_report(past), tally, decode_report_checked,
             "range past total");
  shard::Report many = report;
  for (std::uint64_t i = 0; i < 1000; ++i)
    many.ranges.push_back({report.total_cells + i, report.total_cells + i + 1});
  run_mutant(shard::encode_report(many), tally, decode_report_checked,
             "1000 extra ranges");
  EXPECT_EQ(tally.accepted, 0u);
  EXPECT_EQ(tally.rejected, 3u);
}

// ------------------------------------------------------------ manifest

TEST(ManifestMutation, ByteAndTreeMutationsAreRejectedOrValid) {
  const std::string seed = fleet::encode_manifest(seed_manifest());
  ASSERT_TRUE(decode_manifest_checked(seed).ok());
  byte_mutations(seed, decode_manifest_checked);
  tree_mutations(seed, decode_manifest_checked);
}

TEST(ManifestMutation, ShardCountsTheFileCannotHoldAreRejected) {
  fleet::Manifest manifest = seed_manifest();
  manifest.num_shards = 0xffffffffu;
  Tally tally;
  run_mutant(fleet::encode_manifest(manifest), tally, decode_manifest_checked,
             "UINT32_MAX shards");
  manifest.num_shards = 0;
  manifest.attempts.clear();
  run_mutant(fleet::encode_manifest(manifest), tally, decode_manifest_checked,
             "zero shards");
  EXPECT_EQ(tally.accepted, 0u);
  EXPECT_EQ(tally.rejected, 2u);
}

// ---------------------------------------------------------- trace files

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// n accesses with deltas of both signs, far jumps and all three kinds.
trace::Trace seed_trace(std::uint64_t n) {
  trace::Trace t;
  std::uint64_t addr = 0x4000;
  for (std::uint64_t i = 0; i < n; ++i) {
    addr = i % 7 == 3 ? addr * 977 % (std::uint64_t{1} << 40)
                      : addr + 64 - 40 * (i % 3);
    t.append(addr, static_cast<trace::AccessKind>(i % 3));
  }
  return t;
}

/// Write `bytes` as a trace file, then open it and run a full pass, and
/// read its info. Each must throw std::runtime_error or succeed, and a
/// pass that succeeds must deliver exactly size() accesses. Any other
/// exception escapes and fails the test.
void run_trace_mutant(const std::string& bytes, Tally& tally,
                      const std::string& what) {
  const std::string path = temp_path("xoridx_trace_mutant.bin");
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  const std::size_t before = heap::reset_peak();
  bool ok = true;
  try {
    const std::unique_ptr<tracestore::TraceSource> source =
        tracestore::open_trace_source(path);
    std::uint64_t delivered = 0;
    tracestore::TraceInput(*source).for_each_batch(
        [&](std::span<const trace::Access> batch) {
          delivered += batch.size();
        });
    EXPECT_EQ(delivered, source->size()) << what;
  } catch (const std::runtime_error&) {
    ok = false;
  }
  try {
    (void)tracestore::trace_file_info(path);
  } catch (const std::runtime_error&) {
    ok = false;
  }
  const std::size_t used = heap::peak() - before;
  EXPECT_LE(used, heap_bytes_per_input_byte * bytes.size() + heap_slack_bytes)
      << what;
  ok ? ++tally.accepted : ++tally.rejected;
  std::filesystem::remove(path);
}

/// Every truncation must be rejected; a bit flip at every byte must be
/// rejected or read cleanly, and both must happen.
void trace_byte_mutations(const std::string& seed) {
  Tally truncated;
  for (std::size_t keep = 0; keep < seed.size(); ++keep)
    run_trace_mutant(seed.substr(0, keep), truncated,
                     "truncated to " + std::to_string(keep));
  EXPECT_EQ(truncated.accepted, 0u) << "a truncated trace file loaded";
  Tally flipped;
  for (std::size_t at = 0; at < seed.size(); ++at) {
    std::string mutant = seed;
    mutant[at] = static_cast<char>(mutant[at] ^ (1u << (at % 8)));
    run_trace_mutant(mutant, flipped, "flip at " + std::to_string(at));
  }
  EXPECT_GT(flipped.accepted, 0u);
  EXPECT_GT(flipped.rejected, 0u);
}

TEST(TraceFileMutation, V2ByteMutationsAreRejectedOrRead) {
  const std::string path = temp_path("xoridx_trace_mutation_seed.v2");
  tracestore::save_trace_v2(path, seed_trace(150), 64);
  ASSERT_EQ(tracestore::trace_file_info(path).chunks, 3u);
  const std::string seed = read_file(path);
  std::filesystem::remove(path);
  Tally tally;
  run_trace_mutant(seed, tally, "seed");
  ASSERT_EQ(tally.accepted, 1u);
  trace_byte_mutations(seed);
}

TEST(TraceFileMutation, V1ByteMutationsAreRejectedOrRead) {
  const std::string path = temp_path("xoridx_trace_mutation_seed.v1");
  tracestore::save_trace_v1(path, seed_trace(40));
  const std::string seed = read_file(path);
  std::filesystem::remove(path);
  Tally tally;
  run_trace_mutant(seed, tally, "seed");
  ASSERT_EQ(tally.accepted, 1u);
  trace_byte_mutations(seed);
}

}  // namespace
}  // namespace xoridx
