// Shard execution: run the cells one shard owns and collect a Report.
//
// A shard runs each of its slices as one campaign (api::internal::
// build_campaign, then Campaign::run_cells), so the trace is loaded or
// streamed once and the ProfileCache is shared across its strategies.
// run_cells settles every cell on its own, so a failing cell is recorded
// as its own CellError and its siblings still run; a cancelled run keeps
// the rows of the cells that finished and marks the rest cancelled. Cell
// results are a pure function of (trace content, geometry, strategy), so
// the same cell produces the same bytes whether it runs in a 1-shard or
// an N-shard campaign — the property the differential tests pin down.
//
// The request's sink is ignored here: shard output is the Report (save
// it with save_report; render rows with Report::write_csv).
#pragma once

#include <cstdint>

#include "api/explorer.hpp"
#include "api/status.hpp"
#include "obs/progress.hpp"
#include "shard/plan.hpp"
#include "shard/report.hpp"

namespace xoridx::shard {

/// Run the cells shard `shard_index` (1-based) of `plan` owns. The plan
/// must have been computed from this request (the grid shape is checked
/// here; content mismatches surface as fingerprint rejects at merge).
/// `reporter` (optional) is told which trace slice is running. Progress
/// and error counts tick the registry counters shard.cells_done /
/// shard.cell_errors either way; none of this changes the returned
/// Report.
[[nodiscard]] api::Result<Report> run_shard(
    const api::ExplorationRequest& request, const ShardPlan& plan,
    std::uint32_t shard_index, obs::ProgressReporter* reporter = nullptr);

/// The unsharded reference run: partition into one shard and run it.
/// Unlike Explorer::explore this never fails on a failing cell — the
/// failure is recorded in the report — so it is the reference the
/// differential harness compares merged shard outputs against.
[[nodiscard]] api::Result<Report> run_campaign(
    const api::ExplorationRequest& request);

}  // namespace xoridx::shard
