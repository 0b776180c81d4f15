// Shard reports: the on-disk unit a sharded campaign exchanges.
//
// A Report is the outcome of one shard (or of a whole campaign — a
// merged report is just the 1/1 shard): which request it belongs to
// (fingerprint + grid dimensions), which flat cell ranges it covers, and
// one Cell per covered cell — either the engine's JobResult row or the
// CampaignError-style failure that cell produced. On disk a report is
// one compact JSON document (serve/json, the repo's one JSON codec)
// carrying its format version and the XORIDX_VERSION that wrote it,
// followed by the io/ checksum trailer, so truncated or bit-flipped
// shard files are rejected with a Status instead of being merged.
//
// merge_reports reassembles shard outputs into the unsharded report:
// same fingerprint, same grid, shard indices exactly 1..N, cell ranges
// tiling [0, total) with no overlap. The merged report serializes
// byte-identically to a 1-shard run of the same request.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "api/status.hpp"
#include "api/version.hpp"
#include "engine/job.hpp"
#include "obs/metrics.hpp"
#include "shard/plan.hpp"

namespace xoridx::shard {

/// On-disk format version of report files. v3 is the JSON layout; the
/// binary v1 and v2 files of older builds, and any other version, are
/// rejected with a Status that names what was found.
inline constexpr std::uint16_t report_format_version = 3;

/// A cell that failed: the Status the campaign surfaced for it, with the
/// failing (trace, geometry, strategy) attribution preserved.
struct CellError {
  api::StatusCode code = api::StatusCode::internal;
  std::string message;
  std::string trace;
  std::string geometry;
  std::string strategy;

  friend bool operator==(const CellError&, const CellError&) = default;
};

/// One sweep cell a shard ran: its flat index in the parent request's
/// cell order and either the result row or the error.
struct Cell {
  std::uint64_t index = 0;
  std::variant<engine::JobResult, CellError> outcome;

  [[nodiscard]] bool ok() const noexcept { return outcome.index() == 0; }
  [[nodiscard]] const engine::JobResult& row() const {
    return std::get<engine::JobResult>(outcome);
  }
  [[nodiscard]] const CellError& error() const {
    return std::get<CellError>(outcome);
  }

  friend bool operator==(const Cell&, const Cell&) = default;
};

/// Optional observability section: the worker process's
/// final metrics snapshot plus wall time and peak RSS. Telemetry only —
/// it never affects cell content or CSV bytes, and Report equality
/// ignores it. In a merged report it is the fleet aggregate: counters
/// and histogram buckets summed across shards, gauges and histogram
/// maxima max'd, wall time and peak RSS max'd (fleet makespan / worst
/// worker).
struct ObsSection {
  std::uint64_t wall_ns = 0;
  std::uint64_t peak_rss_bytes = 0;
  obs::Snapshot snapshot;

  friend bool operator==(const ObsSection&, const ObsSection&) = default;
};

struct Report {
  Fingerprint fingerprint;
  api::Version written_by = api::version();
  std::uint32_t shard_index = 1;  ///< 1-based
  std::uint32_t num_shards = 1;
  std::uint64_t total_cells = 0;  ///< of the parent request
  std::uint32_t trace_count = 0;
  std::uint32_t geometry_count = 0;
  std::uint32_t strategy_count = 0;
  std::vector<CellRange> ranges;  ///< sorted, coalesced, non-overlapping
  std::vector<Cell> cells;        ///< ascending by index, one per covered cell
  /// Absent for workers running with metrics disabled or compiled out.
  std::optional<ObsSection> obs;

  [[nodiscard]] std::size_t error_count() const;
  /// True when this report covers every cell of its request (a merged
  /// report, or a 1-shard run).
  [[nodiscard]] bool complete() const {
    return cells.size() == total_cells;
  }

  /// The ok rows in cell order through engine::CsvSink — byte-identical
  /// to the CSV a direct Explorer::explore of the same (sub)request
  /// streams. Error cells produce no row.
  void write_csv(std::ostream& os) const;

  /// Results-only equality: the obs section is telemetry *about* a run,
  /// not part of the campaign outcome — an N-shard merge must compare
  /// equal to the unsharded run even though their snapshots differ.
  friend bool operator==(const Report& a, const Report& b) {
    return a.fingerprint == b.fingerprint && a.written_by == b.written_by &&
           a.shard_index == b.shard_index && a.num_shards == b.num_shards &&
           a.total_cells == b.total_cells &&
           a.trace_count == b.trace_count &&
           a.geometry_count == b.geometry_count &&
           a.strategy_count == b.strategy_count && a.ranges == b.ranges &&
           a.cells == b.cells;
  }
};

/// The bytes of a report file, and their inverse. decode_report never
/// throws: a missing or wrong checksum, malformed JSON, a missing,
/// unknown or mistyped member, an out-of-range geometry or status code,
/// an unsupported format version and structurally inconsistent contents
/// are each an io_error naming the problem.
[[nodiscard]] std::string encode_report(const Report& report);
[[nodiscard]] api::Result<Report> decode_report(std::string_view bytes);

/// encode_report through the atomic-write protocol (failpoint site:
/// shard.report.write), and read_file + decode_report. Errors name the
/// path.
[[nodiscard]] api::Status save_report(const Report& report,
                                      const std::string& path);
[[nodiscard]] api::Result<Report> load_report(const std::string& path);

/// Reassemble shard reports into the unsharded report. Rejects: an empty
/// list, mismatched fingerprints / grids / library versions, duplicate
/// or missing shard indices, and cell ranges that overlap or leave gaps.
/// Obs sections are aggregated into the fleet section over the shards
/// that carry one; shards without one (obs-off workers) merge fine and
/// simply contribute nothing.
[[nodiscard]] api::Result<Report> merge_reports(std::vector<Report> shards);

/// Merge shard reports one at a time, as they land. add() applies every
/// per-report check merge_reports applies — structure, fingerprint and
/// grid agreement, version skew, duplicate shard index — the moment a
/// report arrives, so a fleet driver learns that a worker's output is
/// unusable (and must be re-run) immediately instead of at the end of
/// the campaign. finish() applies the whole-campaign checks (every shard
/// present, ranges tiling [0, total)) and assembles the merged report.
/// merge_reports is expressed on top of this class.
class IncrementalMerger {
 public:
  IncrementalMerger() = default;
  /// Pin the expected identity up front (a fleet driver knows its plan's
  /// fingerprint and shard count before any report lands); the default
  /// constructor adopts them from the first report instead.
  IncrementalMerger(const Fingerprint& expected_fingerprint,
                    std::uint32_t expected_shards);

  /// Validate and fold in one shard report. On error the merger is
  /// unchanged and the same shard may be retried with a corrected file.
  [[nodiscard]] api::Status add(Report report);

  [[nodiscard]] bool seen(std::uint32_t shard_index) const;
  /// Reports accepted so far.
  [[nodiscard]] std::size_t landed() const { return indices_.size(); }
  /// Cells carried by the accepted reports.
  [[nodiscard]] std::uint64_t cells_landed() const { return cells_.size(); }
  /// True once every shard of the campaign has been accepted.
  [[nodiscard]] bool complete() const;

  /// Final tiling check + assembly. The merger is consumed.
  [[nodiscard]] api::Result<Report> finish();

 private:
  bool have_base_ = false;
  Report base_;  ///< header fields of the first accepted report
  std::optional<Fingerprint> expected_fingerprint_;
  std::optional<std::uint32_t> expected_shards_;
  std::vector<std::uint32_t> indices_;
  std::vector<CellRange> ranges_;
  std::vector<Cell> cells_;
  std::optional<ObsSection> obs_;
};

}  // namespace xoridx::shard
