#include "shard/runner.hpp"

#include <memory>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "api/internal.hpp"
#include "engine/campaign.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace xoridx::shard {

namespace {

using api::ExplorationRequest;
using api::Result;
using api::Status;
using api::StatusCode;
using api::internal::cell_error_status;

CellError cell_error_from(const Status& status) {
  CellError error;
  error.code = status.code();
  error.message = status.message();
  error.trace = status.trace();
  error.geometry = status.geometry();
  error.strategy = status.strategy();
  return error;
}

/// The per-cell marker for cells abandoned by a fired cancellation
/// token (SIGINT/SIGTERM, a daemon cancel command). Same wording for
/// every abandoned cell, so partial reports diff cleanly.
CellError cancelled_cell_error() {
  CellError error;
  error.code = StatusCode::cancelled;
  error.message = "cancelled before the cell ran";
  return error;
}

/// High-water resident set of this process, in bytes (0 when the query
/// fails). ru_maxrss is KiB on Linux, bytes on macOS.
std::uint64_t peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
}

}  // namespace

api::Result<Report> run_shard(const api::ExplorationRequest& request,
                              const ShardPlan& plan,
                              std::uint32_t shard_index,
                              obs::ProgressReporter* reporter) {
  const std::uint64_t start_ns = obs::now_ns();
  if (shard_index == 0 || shard_index > plan.num_shards())
    return Status(StatusCode::invalid_argument,
                  "shard index " + std::to_string(shard_index) +
                      " out of range for " +
                      std::to_string(plan.num_shards()) + " shards");
  if (request.traces.size() != plan.trace_count() ||
      request.geometries.size() != plan.geometry_count() ||
      request.strategies.size() != plan.strategy_count())
    return Status(StatusCode::invalid_argument,
                  "shard plan was computed from a different request "
                  "(grid shape mismatch)");

  const std::size_t geometry_count = plan.geometry_count();
  const std::size_t strategy_count = plan.strategy_count();

  Report report;
  report.fingerprint = plan.fingerprint();
  report.shard_index = shard_index;
  report.num_shards = plan.num_shards();
  report.total_cells = plan.total_cells();
  report.trace_count = static_cast<std::uint32_t>(plan.trace_count());
  report.geometry_count = static_cast<std::uint32_t>(geometry_count);
  report.strategy_count = static_cast<std::uint32_t>(strategy_count);
  report.ranges = plan.ranges(shard_index);

  for (const ShardPlan::TraceSlice& slice : plan.slices(shard_index)) {
    // The slice's cells in campaign order: geometry-major, then strategy.
    std::vector<std::uint64_t> cells;
    for (const std::size_t g : slice.geometries)
      for (std::size_t s = 0; s < strategy_count; ++s)
        cells.push_back(
            (static_cast<std::uint64_t>(slice.trace) * geometry_count + g) *
                strategy_count +
            s);
    const auto record_error = [&](std::uint64_t index, CellError error) {
      report.cells.push_back(Cell{index, std::move(error)});
      XORIDX_OBS_COUNT("shard.cell_errors", 1);
    };

    // A fired token marks every cell of the remaining slices instead of
    // running them: the report stays valid (every owned cell carried,
    // each abandoned one with a cancelled error) and mergeable, it is
    // just partial.
    if (request.cancel.cancelled()) {
      for (const std::uint64_t index : cells)
        record_error(index, cancelled_cell_error());
      continue;
    }

    ExplorationRequest sub;
    sub.traces = {request.traces[slice.trace]};
    for (const std::size_t g : slice.geometries)
      sub.geometries.push_back(request.geometries[g]);
    sub.strategies = request.strategies;
    sub.hashed_bits = request.hashed_bits;
    sub.profile_cache_bytes = request.profile_cache_bytes;

    XORIDX_SPAN_NAMED(span, "shard", "trace_slice");
    XORIDX_SPAN_DETAIL(span, request.traces[slice.trace].name());
    if (reporter != nullptr)
      reporter->set_activity("trace '" + request.traces[slice.trace].name() +
                             "' batch (" + std::to_string(cells.size()) +
                             " cells)");

    // One campaign per slice, so the trace is loaded or streamed once and
    // its profiles are shared across strategies. run_cells settles every
    // cell on its own: a failing cell gets its own attributed error
    // without stopping its siblings.
    Result<std::unique_ptr<engine::Campaign>> built =
        api::internal::build_campaign(sub);
    if (!built.ok()) {
      for (const std::uint64_t index : cells) {
        record_error(index, cell_error_from(built.status()));
        XORIDX_OBS_COUNT("shard.cells_done", 1);
      }
      continue;
    }
    engine::CampaignOptions options;
    options.num_threads = request.num_threads;
    options.cancel = request.cancel;
    std::vector<engine::CellOutcome> outcomes = (*built)->run_cells(options);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      engine::CellOutcome& out = outcomes[i];
      switch (out.state) {
        case engine::CellState::done:
          report.cells.push_back(Cell{cells[i], std::move(out.result)});
          break;
        case engine::CellState::failed:
          record_error(cells[i],
                       cell_error_from(cell_error_status(out.error)));
          break;
        case engine::CellState::cancelled:
          record_error(cells[i], cancelled_cell_error());
          continue;  // abandoned, not done
      }
      XORIDX_OBS_COUNT("shard.cells_done", 1);
    }
  }
  // Attach the worker's observability section (format v2). Gated on the
  // same switches as recording itself, so obs-off runs produce reports
  // without a section — which merge_reports treats as "nothing to
  // contribute", keeping result bytes independent of obs configuration.
  if (obs::compiled() && obs::metrics_enabled()) {
    ObsSection section;
    section.wall_ns = obs::now_ns() - start_ns;
    section.peak_rss_bytes = peak_rss_bytes();
    section.snapshot = obs::registry().snapshot();
    report.obs = std::move(section);
  }
  return report;
}

api::Result<Report> run_campaign(const api::ExplorationRequest& request) {
  Result<ShardPlan> plan = ShardPlan::partition(request, 1);
  if (!plan.ok()) return plan.status();
  return run_shard(request, *plan, 1);
}

}  // namespace xoridx::shard
