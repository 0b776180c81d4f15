// Fleet dispatch: run a sharded campaign across worker processes and
// merge the results deterministically.
//
// The dispatcher takes the caller's ShardPlan (every worker computes the
// same plan from the same request — zero coordination), launches one
// worker per shard through a Launcher backend, and supervises them:
// heartbeat staleness or an exit without a valid report kills/requeues
// the shard up to max_attempts. Reports are
// validated and folded the moment they land (IncrementalMerger runs
// every per-report check merge_reports would), so a corrupt or
// wrong-campaign report triggers a retry immediately instead of at the
// end of the run.
//
// Determinism: cell results are a pure function of (trace content,
// geometry, strategy) and the merged report is assembled in flat cell
// order, so the final CSV is byte-identical to the unsharded
// Explorer::explore run no matter how many workers died and were
// retried in between — the property fleet_test and the CI smoke pin
// down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "engine/cancellation.hpp"
#include "fleet/launcher.hpp"
#include "obs/progress.hpp"
#include "shard/plan.hpp"
#include "shard/report.hpp"

namespace xoridx::fleet {

struct FleetOptions {
  /// Workers running at once; 0 means all shards in parallel.
  std::uint32_t max_parallel = 0;
  /// Total launches allowed per shard (first try + retries).
  std::uint32_t max_attempts = 3;
  /// Kill + requeue a worker whose heartbeat file is older than this
  /// (or was never created this long after launch). 0 disables the
  /// watchdog — exits without a valid report still trigger retries.
  double heartbeat_timeout_s = 0.0;
  /// Dispatcher sweep pacing; also bounds cancellation latency.
  double poll_interval_s = 0.05;
  /// Directory for shard-<i>.rpt / .hb / .log files. Created if absent.
  std::string work_dir;
  /// Worker argv template; {shard}, {count}, {report} and {heartbeat}
  /// are substituted per launch (see substitute_argv).
  std::vector<std::string> worker_argv;
  Launcher* launcher = nullptr;  ///< required; not owned
  engine::CancellationToken cancel;
  /// Operator-facing warnings (requeues, stalls) and activity naming;
  /// optional — without one warnings go to stderr.
  obs::ProgressReporter* reporter = nullptr;
  /// Fault-injection hook for tests and the CI smoke: SIGKILL this
  /// shard's first attempt in the sweep that launches it, so it dies
  /// before it can write a report however small the shard. 0 disables.
  std::uint32_t inject_kill_shard = 0;
  /// Resume a campaign whose driver died: load the work dir's manifest
  /// (refusing on a fingerprint or shard-count mismatch with the rebuilt
  /// request), restore per-shard attempt budgets, re-validate landed
  /// shard-<i>.rpt files through the merger's checks, and launch only
  /// the shards that are missing or invalid.
  bool resume = false;
};

struct FleetResult {
  shard::Report merged;
  std::uint32_t launches = 0;  ///< total worker launches incl. retries
  std::uint32_t retries = 0;   ///< requeues (launches - num_shards)
  /// Shards restored from landed reports by --resume, with no launch.
  std::uint32_t resumed = 0;
};

/// Paths the dispatcher and its workers agree on. Exposed so the CLI,
/// tests and CI can find logs and inject faults without duplicating the
/// naming scheme.
[[nodiscard]] std::string shard_report_path(const std::string& work_dir,
                                            std::uint32_t shard_index);
[[nodiscard]] std::string shard_heartbeat_path(const std::string& work_dir,
                                               std::uint32_t shard_index);
[[nodiscard]] std::string shard_log_path(const std::string& work_dir,
                                         std::uint32_t shard_index);

/// Run the campaign `plan` partitions across worker processes, one per
/// shard; workers must rebuild the request the plan was computed from.
/// Returns the merged report (byte-identical, via Report::write_csv, to
/// the unsharded run) or the first unrecoverable error: invalid options,
/// a shard exhausting max_attempts (the message names the shard and its
/// log), or cancellation.
[[nodiscard]] api::Result<FleetResult> dispatch_fleet(
    const shard::ShardPlan& plan, const FleetOptions& options);

}  // namespace xoridx::fleet
