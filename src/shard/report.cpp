#include "shard/report.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "engine/report.hpp"
#include "fail/failpoint.hpp"
#include "io/atomic_file.hpp"
#include "io/sealed_json.hpp"
#include "serve/json.hpp"

namespace xoridx::shard {

namespace {

using api::Result;
using api::Status;
using api::StatusCode;
using serve::JsonValue;

/// The magic that opened every binary (format v1 and v2) report.
constexpr std::string_view binary_report_magic = "XORIDXR1";

// The decoders below read leniently; io::decode_sealed_json rejects
// whatever does not re-encode to the same bytes.

std::uint64_t u64(const JsonValue& v) {
  return static_cast<std::uint64_t>(v.as_int());
}

JsonValue u64_array(std::initializer_list<std::uint64_t> values) {
  JsonValue out = JsonValue::array();
  for (const std::uint64_t v : values) out.push_back(v);
  return out;
}

// ---------------------------------------------------------------- cells
//
// A row cell carries the JobResult fields; an error cell is told apart by
// its "error" member, the StatusCode as an integer.

JsonValue encode_cell(const Cell& cell) {
  JsonValue out = JsonValue::object();
  out.set("index", cell.index);
  if (cell.ok()) {
    const engine::JobResult& r = cell.row();
    const cache::MissBreakdown& b = r.breakdown;
    out.set("trace", r.trace_name);
    out.set("geometry",
            u64_array({r.geometry.size_bytes, r.geometry.block_bytes,
                       r.geometry.associativity}));
    out.set("label", r.label);
    out.set("kind", r.kind);
    out.set("accesses", r.accesses);
    out.set("baseline_misses", r.baseline_misses);
    out.set("misses", r.misses);
    out.set("estimated_misses", r.estimated_misses);
    out.set("reverted", r.reverted);
    out.set("breakdown", u64_array({b.accesses, b.misses, b.compulsory,
                                    b.capacity, b.conflict}));
    out.set("function", r.function_description);
  } else {
    const CellError& e = cell.error();
    out.set("error", static_cast<std::int64_t>(e.code));
    out.set("message", e.message);
    out.set("trace", e.trace);
    out.set("geometry", e.geometry);
    out.set("strategy", e.strategy);
  }
  return out;
}

/// Throws std::invalid_argument for an invalid geometry or status code.
Cell decode_cell(const JsonValue& v) {
  Cell cell;
  cell.index = u64(v.at("index"));
  if (v.find("error") == nullptr) {
    engine::JobResult r;
    const JsonValue& g = v.at("geometry");
    const JsonValue& b = v.at("breakdown");
    r.trace_name = v.at("trace").as_string();
    r.geometry = cache::CacheGeometry(
        static_cast<std::uint32_t>(u64(g.item(0))),
        static_cast<std::uint32_t>(u64(g.item(1))),
        static_cast<std::uint32_t>(u64(g.item(2))));
    r.label = v.at("label").as_string();
    r.kind = v.at("kind").as_string();
    r.accesses = u64(v.at("accesses"));
    r.baseline_misses = u64(v.at("baseline_misses"));
    r.misses = u64(v.at("misses"));
    r.estimated_misses = u64(v.at("estimated_misses"));
    r.reverted = v.at("reverted").as_bool();
    r.breakdown = {u64(b.item(0)), u64(b.item(1)), u64(b.item(2)),
                   u64(b.item(3)), u64(b.item(4))};
    r.function_description = v.at("function").as_string();
    cell.outcome = std::move(r);
  } else {
    CellError e;
    const std::uint64_t code = u64(v.at("error"));
    if (code > static_cast<std::uint64_t>(StatusCode::busy))
      throw std::invalid_argument("a cell carries unknown status code " +
                                  v.at("error").serialize());
    e.code = static_cast<StatusCode>(code);
    e.message = v.at("message").as_string();
    e.trace = v.at("trace").as_string();
    e.geometry = v.at("geometry").as_string();
    e.strategy = v.at("strategy").as_string();
    cell.outcome = std::move(e);
  }
  return cell;
}

// ---------------------------------------------------------- obs section
//
// The snapshot's three tables become objects keyed by metric name (the
// parser rejects duplicate keys), a histogram an array of count, sum,
// max and its buckets.

JsonValue encode_obs(const ObsSection& obs) {
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : obs.snapshot.counters)
    counters.set(name, value);
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : obs.snapshot.gauges) gauges.set(name, value);
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, hist] : obs.snapshot.histograms) {
    JsonValue h = u64_array({hist.count, hist.sum, hist.max});
    for (const std::uint64_t bucket : hist.buckets) h.push_back(bucket);
    histograms.set(name, std::move(h));
  }
  JsonValue out = JsonValue::object();
  out.set("wall_ns", obs.wall_ns);
  out.set("peak_rss_bytes", obs.peak_rss_bytes);
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

ObsSection decode_obs(const JsonValue& v) {
  ObsSection obs;
  obs::Snapshot& snap = obs.snapshot;
  obs.wall_ns = u64(v.at("wall_ns"));
  obs.peak_rss_bytes = u64(v.at("peak_rss_bytes"));
  for (const auto& [name, value] : v.at("counters").members())
    snap.counters.emplace_back(name, u64(value));
  for (const auto& [name, value] : v.at("gauges").members())
    snap.gauges.emplace_back(name, value.as_int());
  for (const auto& [name, value] : v.at("histograms").members()) {
    obs::HistogramSnapshot& h =
        snap.histograms.emplace_back(name, obs::HistogramSnapshot{}).second;
    h.count = u64(value.item(0));
    h.sum = u64(value.item(1));
    h.max = u64(value.item(2));
    for (std::size_t i = 0; i < h.buckets.size(); ++i)
      h.buckets[i] = u64(value.item(3 + i));
  }
  // Snapshot::aggregate merges name-sorted vectors. Sorting here makes a
  // file with unsorted names fail the canonical re-encoding.
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return obs;
}

JsonValue encode_json(const Report& report) {
  JsonValue out = JsonValue::object();
  out.set("shard_report", static_cast<std::int64_t>(report_format_version));
  out.set("written_by",
          u64_array({static_cast<std::uint64_t>(report.written_by.major),
                     static_cast<std::uint64_t>(report.written_by.minor),
                     static_cast<std::uint64_t>(report.written_by.patch)}));
  out.set("fingerprint", report.fingerprint.to_string());
  out.set("shard_index", std::uint64_t{report.shard_index});
  out.set("num_shards", std::uint64_t{report.num_shards});
  out.set("total_cells", report.total_cells);
  out.set("trace_count", std::uint64_t{report.trace_count});
  out.set("geometry_count", std::uint64_t{report.geometry_count});
  out.set("strategy_count", std::uint64_t{report.strategy_count});
  JsonValue ranges = JsonValue::array();
  for (const CellRange& r : report.ranges)
    ranges.push_back(u64_array({r.begin, r.end}));
  out.set("ranges", std::move(ranges));
  JsonValue cells = JsonValue::array();
  for (const Cell& cell : report.cells) cells.push_back(encode_cell(cell));
  out.set("cells", std::move(cells));
  out.set("obs", report.obs.has_value() ? encode_obs(*report.obs)
                                        : JsonValue());
  return out;
}

/// The lenient read of a v3 document; throws std::invalid_argument where
/// decode_cell does.
Report decode_json(const JsonValue& v) {
  Report report;
  const JsonValue& version = v.at("written_by");
  report.written_by = {static_cast<int>(version.item(0).as_int()),
                       static_cast<int>(version.item(1).as_int()),
                       static_cast<int>(version.item(2).as_int())};
  report.fingerprint = Fingerprint::parse(v.at("fingerprint").as_string())
                           .value_or(Fingerprint{});
  report.shard_index = static_cast<std::uint32_t>(u64(v.at("shard_index")));
  report.num_shards = static_cast<std::uint32_t>(u64(v.at("num_shards")));
  report.total_cells = u64(v.at("total_cells"));
  report.trace_count = static_cast<std::uint32_t>(u64(v.at("trace_count")));
  report.geometry_count =
      static_cast<std::uint32_t>(u64(v.at("geometry_count")));
  report.strategy_count =
      static_cast<std::uint32_t>(u64(v.at("strategy_count")));
  for (const JsonValue& r : v.at("ranges").items())
    report.ranges.push_back({u64(r.item(0)), u64(r.item(1))});
  for (const JsonValue& cell : v.at("cells").items())
    report.cells.push_back(decode_cell(cell));
  if (!v.at("obs").is_null()) report.obs = decode_obs(v.at("obs"));
  return report;
}

/// Structural invariants shared by load and merge: ranges sorted and
/// disjoint inside [0, total]; cells ascending, one per covered index.
Status check_structure(const Report& report) {
  if (report.total_cells !=
      static_cast<std::uint64_t>(report.trace_count) * report.geometry_count *
          report.strategy_count)
    return Status(StatusCode::io_error,
                  "shard report grid (" + std::to_string(report.trace_count) +
                      " x " + std::to_string(report.geometry_count) + " x " +
                      std::to_string(report.strategy_count) +
                      ") does not match its total of " +
                      std::to_string(report.total_cells) + " cells");
  if (report.shard_index == 0 || report.shard_index > report.num_shards)
    return Status(StatusCode::io_error,
                  "shard report index " + std::to_string(report.shard_index) +
                      " out of range for " +
                      std::to_string(report.num_shards) + " shards");
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < report.ranges.size(); ++i) {
    const CellRange& r = report.ranges[i];
    if (r.begin >= r.end || r.end > report.total_cells)
      return Status(StatusCode::io_error,
                    "shard report cell range [" + std::to_string(r.begin) +
                        ", " + std::to_string(r.end) + ") is invalid");
    if (i > 0 && r.begin < report.ranges[i - 1].end)
      return Status(StatusCode::io_error,
                    "shard report cell ranges overlap or are unsorted");
    covered += r.size();
  }
  if (covered != report.cells.size())
    return Status(StatusCode::io_error,
                  "shard report covers " + std::to_string(covered) +
                      " cells but carries " +
                      std::to_string(report.cells.size()));
  std::size_t range_index = 0;
  std::uint64_t expected = report.ranges.empty() ? 0 : report.ranges[0].begin;
  for (const Cell& cell : report.cells) {
    while (range_index < report.ranges.size() &&
           expected >= report.ranges[range_index].end) {
      ++range_index;
      if (range_index < report.ranges.size())
        expected = report.ranges[range_index].begin;
    }
    if (range_index >= report.ranges.size() || cell.index != expected)
      return Status(StatusCode::io_error,
                    "shard report cell " + std::to_string(cell.index) +
                        " does not match its declared ranges");
    ++expected;
  }
  return {};
}

}  // namespace

std::size_t Report::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(cells.begin(), cells.end(),
                    [](const Cell& c) { return !c.ok(); }));
}

void Report::write_csv(std::ostream& os) const {
  engine::CsvSink sink(os);
  sink.begin();
  for (const Cell& cell : cells)
    if (cell.ok()) sink.write(cell.row());
  sink.end();
}

std::string encode_report(const Report& report) {
  return io::seal_checksum(encode_json(report).serialize());
}

api::Result<Report> decode_report(std::string_view bytes) {
  if (bytes.starts_with(binary_report_magic))
    return Status(StatusCode::io_error,
                  "shard report is a binary report from an older xoridx "
                  "(format v1 or v2); this build reads format v" +
                      std::to_string(report_format_version) +
                      " only, so re-run the shard");
  Result<Report> report = io::decode_sealed_json<Report>(
      bytes, "shard report", "shard_report", report_format_version,
      decode_json, encode_json);
  if (!report.ok()) return report;
  if (Status status = check_structure(*report); !status.ok()) return status;
  return report;
}

api::Status save_report(const Report& report, const std::string& path) {
  // Atomic write: the dispatcher treats the report file's existence as
  // the worker's verdict, so a crashed or ENOSPC'd worker must leave no
  // file at all rather than a torn one that burns a retry on rejection.
  if (int injected = XORIDX_FAILPOINT("shard.report.write"); injected != 0)
    return Status(StatusCode::io_error,
                  "cannot write report file " + path + ": " +
                      std::strerror(injected));
  return io::write_file_atomic(path, encode_report(report));
}

api::Result<Report> load_report(const std::string& path) {
  const Result<std::string> data = io::read_file(path, "report file");
  if (!data.ok()) return data.status();
  Result<Report> report = decode_report(*data);
  if (!report.ok())
    return Status(report.status().code(),
                  report.status().message() + ": " + path);
  return report;
}

IncrementalMerger::IncrementalMerger(const Fingerprint& expected_fingerprint,
                                     std::uint32_t expected_shards)
    : expected_fingerprint_(expected_fingerprint),
      expected_shards_(expected_shards) {}

bool IncrementalMerger::seen(std::uint32_t shard_index) const {
  return std::find(indices_.begin(), indices_.end(), shard_index) !=
         indices_.end();
}

bool IncrementalMerger::complete() const {
  return have_base_ && indices_.size() == base_.num_shards;
}

api::Status IncrementalMerger::add(Report report) {
  if (Status status = check_structure(report); !status.ok()) return status;
  const Fingerprint expected = have_base_ ? base_.fingerprint
                               : expected_fingerprint_.has_value()
                                   ? *expected_fingerprint_
                                   : report.fingerprint;
  if (report.fingerprint != expected)
    return Status(StatusCode::invalid_argument,
                  "shard " + std::to_string(report.shard_index) +
                      " belongs to a different request (fingerprint " +
                      report.fingerprint.to_string() + " != " +
                      expected.to_string() + ")");
  if (have_base_ && !(report.written_by == base_.written_by))
    return Status(StatusCode::invalid_argument,
                  "version skew: shard " +
                      std::to_string(report.shard_index) +
                      " was written by xoridx " +
                      std::to_string(report.written_by.major) + "." +
                      std::to_string(report.written_by.minor) + "." +
                      std::to_string(report.written_by.patch) +
                      ", expected " + std::to_string(base_.written_by.major) +
                      "." + std::to_string(base_.written_by.minor) + "." +
                      std::to_string(base_.written_by.patch));
  const bool shape_mismatch =
      have_base_ ? (report.num_shards != base_.num_shards ||
                    report.total_cells != base_.total_cells ||
                    report.trace_count != base_.trace_count ||
                    report.geometry_count != base_.geometry_count ||
                    report.strategy_count != base_.strategy_count)
                 : (expected_shards_.has_value() &&
                    report.num_shards != *expected_shards_);
  if (shape_mismatch)
    return Status(StatusCode::invalid_argument,
                  "shard " + std::to_string(report.shard_index) +
                      " disagrees about the campaign shape (shards/cells/"
                      "grid)");
  if (seen(report.shard_index))
    return Status(StatusCode::invalid_argument,
                  "duplicate shard index " +
                      std::to_string(report.shard_index));

  if (!have_base_) {
    base_.fingerprint = report.fingerprint;
    base_.written_by = report.written_by;
    base_.num_shards = report.num_shards;
    base_.total_cells = report.total_cells;
    base_.trace_count = report.trace_count;
    base_.geometry_count = report.geometry_count;
    base_.strategy_count = report.strategy_count;
    have_base_ = true;
  }
  indices_.push_back(report.shard_index);
  ranges_.insert(ranges_.end(), report.ranges.begin(), report.ranges.end());
  for (Cell& cell : report.cells) cells_.push_back(std::move(cell));
  // Fleet observability: fold the sections that exist. A shard without
  // one (an obs-off worker) merges fine and just contributes nothing.
  // Sum/max/union are commutative, so the result is independent of
  // landing order.
  if (report.obs.has_value()) {
    if (!obs_.has_value()) {
      obs_ = std::move(*report.obs);
    } else {
      obs_->wall_ns = std::max(obs_->wall_ns, report.obs->wall_ns);
      obs_->peak_rss_bytes =
          std::max(obs_->peak_rss_bytes, report.obs->peak_rss_bytes);
      obs_->snapshot.aggregate(report.obs->snapshot);
    }
  }
  return {};
}

api::Result<Report> IncrementalMerger::finish() {
  if (!have_base_)
    return Status(StatusCode::invalid_argument, "no shard reports to merge");

  // Walk the sorted indices against the expected 1..N sequence — O(given
  // shards) with no N-sized allocation, so a crafted num_shards (up to
  // UINT32_MAX) yields a descriptive error instead of a huge bitmap.
  // Duplicates were rejected by add(), so only gaps remain possible.
  std::sort(indices_.begin(), indices_.end());
  std::uint64_t next = 1;
  for (const std::uint32_t index : indices_) {
    if (index > next)
      return Status(StatusCode::invalid_argument,
                    "missing shard " + std::to_string(next) + " of " +
                        std::to_string(base_.num_shards));
    ++next;
  }
  if (next != static_cast<std::uint64_t>(base_.num_shards) + 1)
    return Status(StatusCode::invalid_argument,
                  "missing shard " + std::to_string(next) + " of " +
                      std::to_string(base_.num_shards));

  // With indices exactly 1..N, coverage errors can only come from
  // corrupt range tables; the tiling check catches them.
  std::sort(ranges_.begin(), ranges_.end(),
            [](const CellRange& a, const CellRange& b) {
              return a.begin < b.begin;
            });
  std::uint64_t expected = 0;
  for (const CellRange& r : ranges_) {
    if (r.begin < expected)
      return Status(StatusCode::invalid_argument,
                    "shard cell ranges overlap at cell " +
                        std::to_string(r.begin));
    if (r.begin > expected)
      return Status(StatusCode::invalid_argument,
                    "shards leave cells [" + std::to_string(expected) + ", " +
                        std::to_string(r.begin) + ") uncovered");
    expected = r.end;
  }
  if (expected != base_.total_cells)
    return Status(StatusCode::invalid_argument,
                  "shards cover only " + std::to_string(expected) + " of " +
                      std::to_string(base_.total_cells) + " cells");

  Report merged;
  merged.fingerprint = base_.fingerprint;
  merged.written_by = base_.written_by;
  merged.shard_index = 1;
  merged.num_shards = 1;
  merged.total_cells = base_.total_cells;
  merged.trace_count = base_.trace_count;
  merged.geometry_count = base_.geometry_count;
  merged.strategy_count = base_.strategy_count;
  merged.ranges = {CellRange{0, base_.total_cells}};
  merged.cells = std::move(cells_);
  std::sort(merged.cells.begin(), merged.cells.end(),
            [](const Cell& a, const Cell& b) { return a.index < b.index; });
  merged.obs = std::move(obs_);
  return merged;
}

api::Result<Report> merge_reports(std::vector<Report> shards) {
  if (shards.empty())
    return Status(StatusCode::invalid_argument, "no shard reports to merge");
  IncrementalMerger merger;
  for (Report& shard : shards)
    if (Status status = merger.add(std::move(shard)); !status.ok())
      return status;
  return merger.finish();
}

}  // namespace xoridx::shard
