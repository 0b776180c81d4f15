#include "fleet/dispatcher.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "fail/failpoint.hpp"
#include "fleet/heartbeat.hpp"
#include "fleet/manifest.hpp"
#include "io/atomic_file.hpp"
#include "obs/metrics.hpp"

namespace xoridx::fleet {

using api::Status;
using api::StatusCode;

std::string shard_report_path(const std::string& work_dir,
                              std::uint32_t shard_index) {
  return work_dir + "/shard-" + std::to_string(shard_index) + ".rpt";
}

std::string shard_heartbeat_path(const std::string& work_dir,
                                 std::uint32_t shard_index) {
  return work_dir + "/shard-" + std::to_string(shard_index) + ".hb";
}

std::string shard_log_path(const std::string& work_dir,
                           std::uint32_t shard_index) {
  return work_dir + "/shard-" + std::to_string(shard_index) + ".log";
}

namespace {

using clock = std::chrono::steady_clock;

enum class SlotState { pending, running, landed };

struct Slot {
  SlotState state = SlotState::pending;
  std::uint32_t attempts = 0;  ///< launches so far
  WorkerHandle handle;
  clock::time_point launched_at;
  /// Set when the dispatcher killed this worker on purpose; used as the
  /// failure reason when the corpse is reaped.
  std::string kill_reason;
};

void warn_line(obs::ProgressReporter* reporter, const std::string& message) {
  if (reporter != nullptr) {
    reporter->warn(message);
  } else {
    std::fprintf(stderr, "[fleet] warning: %s\n", message.c_str());
  }
}

double elapsed_s(clock::time_point since) {
  return std::chrono::duration<double>(clock::now() - since).count();
}

}  // namespace

api::Result<FleetResult> dispatch_fleet(const shard::ShardPlan& plan,
                                        const FleetOptions& options) {
  if (options.launcher == nullptr)
    return Status(StatusCode::invalid_argument, "fleet needs a launcher");
  if (options.work_dir.empty())
    return Status(StatusCode::invalid_argument, "fleet needs a work dir");
  if (options.worker_argv.empty())
    return Status(StatusCode::invalid_argument,
                  "fleet needs a worker argv template");
  if (options.max_attempts == 0)
    return Status(StatusCode::invalid_argument,
                  "fleet needs >= 1 attempt per shard");

  {
    std::error_code ec;
    std::filesystem::create_directories(options.work_dir, ec);
    if (ec)
      return Status(StatusCode::io_error, "cannot create fleet work dir '" +
                                              options.work_dir +
                                              "': " + ec.message());
  }

  // Preflight: prove the work dir accepts a durable write before any
  // worker launches. A read-only or full volume fails here, in
  // milliseconds with a named error, instead of after every shard burns
  // its attempts on unwritable reports.
  {
    const std::string probe = options.work_dir + "/.preflight";
    Status status;
    if (int injected = XORIDX_FAILPOINT("fleet.preflight"); injected != 0)
      status = Status(StatusCode::io_error,
                      "cannot create temp file for " + probe + ": " +
                          std::strerror(injected));
    else
      status = io::write_file_atomic(probe, "xoridx fleet preflight probe\n");
    if (!status.ok())
      return Status(StatusCode::io_error,
                    "fleet work dir '" + options.work_dir +
                        "' failed its write preflight: " + status.message());
    std::error_code ec;
    std::filesystem::remove(probe, ec);
  }

  const std::uint32_t n = plan.num_shards();
  const std::uint32_t max_parallel =
      options.max_parallel == 0 ? n : options.max_parallel;
  shard::IncrementalMerger merger(plan.fingerprint(), n);
  std::vector<Slot> slots(n);
  FleetResult fleet;
  Launcher& launcher = *options.launcher;

  const std::string manifest_file = manifest_path(options.work_dir);
  Manifest manifest;
  manifest.fingerprint = plan.fingerprint();
  manifest.num_shards = n;
  manifest.total_cells = plan.total_cells();
  manifest.attempts.assign(n, 0);

  if (options.resume) {
    auto loaded = load_manifest(manifest_file);
    if (!loaded.ok())
      return Status(loaded.status().code(),
                    "cannot resume fleet campaign: " +
                        loaded.status().message());
    const Manifest& prev = loaded.value();
    if (!(prev.fingerprint == plan.fingerprint()))
      return Status(StatusCode::invalid_argument,
                    "cannot resume: manifest " + manifest_file +
                        " records campaign fingerprint " +
                        prev.fingerprint.to_string() +
                        " but the rebuilt request fingerprints as " +
                        plan.fingerprint().to_string() +
                        " (different traces, geometries, strategies, or "
                        "trace edits since the original run)");
    if (prev.num_shards != n)
      return Status(StatusCode::invalid_argument,
                    "cannot resume: manifest " + manifest_file + " records " +
                        std::to_string(prev.num_shards) +
                        " shards but this run asks for " + std::to_string(n));
    manifest.attempts = prev.attempts;
    for (std::uint32_t index = 1; index <= n; ++index)
      slots[index - 1].attempts = manifest.attempts[index - 1];

    // Re-validate whatever landed before the driver died. The merger
    // runs the same fingerprint/checksum/shape checks as a live reap, so
    // a torn or foreign report is simply re-run, never merged.
    for (std::uint32_t index = 1; index <= n; ++index) {
      const std::string report_file =
          shard_report_path(options.work_dir, index);
      auto report = shard::load_report(report_file);
      if (!report.ok()) continue;
      if (report.value().shard_index != index) continue;
      const std::uint64_t cells = report.value().cells.size();
      if (!merger.add(std::move(report.value())).ok()) continue;
      slots[index - 1].state = SlotState::landed;
      ++fleet.resumed;
      XORIDX_OBS_COUNT("fleet.resumed_shards", 1);
      XORIDX_OBS_COUNT("fleet.cells_landed", cells);
    }
  }

  // Persist the campaign identity (and, on resume, the restored attempt
  // budget) before the first launch: from here on a driver death is
  // resumable.
  if (Status status = save_manifest(manifest, manifest_file); !status.ok())
    return status;

  const auto kill_running = [&] {
    for (Slot& slot : slots)
      if (slot.state == SlotState::running) launcher.kill(slot.handle);
    // SIGKILL'd children become reapable promptly; bound the wait so a
    // wedged launcher backend cannot hang shutdown.
    const clock::time_point start = clock::now();
    for (Slot& slot : slots) {
      while (slot.state == SlotState::running) {
        if (launcher.poll(slot.handle).has_value() || elapsed_s(start) > 2.0) {
          slot.state = SlotState::pending;
          break;
        }
        ::usleep(2000);
      }
    }
  };

  const auto launch = [&](std::uint32_t index) -> Status {
    Slot& slot = slots[index - 1];
    // The attempt budget is durable: a resumed campaign whose manifest
    // already records max_attempts for this shard has no launches left.
    if (slot.attempts >= options.max_attempts)
      return Status(StatusCode::internal,
                    "shard " + std::to_string(index) + " already consumed " +
                        std::to_string(slot.attempts) +
                        " attempts (recorded in the campaign manifest) "
                        "without landing a valid report; worker log: " +
                        shard_log_path(options.work_dir, index));
    const std::string report = shard_report_path(options.work_dir, index);
    const std::string heartbeat =
        shard_heartbeat_path(options.work_dir, index);
    // Clear leftovers from a previous attempt (or a previous run in a
    // reused work dir) so a stale file cannot masquerade as this
    // attempt's output or liveness.
    std::error_code ec;
    std::filesystem::remove(report, ec);
    std::filesystem::remove(heartbeat, ec);

    WorkerCommand command;
    command.argv =
        substitute_argv(options.worker_argv, index, n, report, heartbeat);
    command.log_path = shard_log_path(options.work_dir, index);

    // Charge the attempt to the durable budget before the worker exists:
    // if the driver dies between spawn and the next manifest write, a
    // resume must not grant this shard a free extra attempt.
    manifest.attempts[index - 1] = slot.attempts + 1;
    if (Status status = save_manifest(manifest, manifest_file); !status.ok())
      return status;

    auto handle = launcher.spawn(command);
    if (!handle.ok()) return handle.status();
    slot.handle = handle.value();
    slot.state = SlotState::running;
    slot.launched_at = clock::now();
    slot.kill_reason.clear();
    ++slot.attempts;
    ++fleet.launches;
    XORIDX_OBS_COUNT("fleet.launches", 1);
    if (options.reporter != nullptr)
      options.reporter->set_activity("shard " + std::to_string(index) + "/" +
                                     std::to_string(n) + " attempt " +
                                     std::to_string(slot.attempts));
    return {};
  };

  // Requeue the shard or, when its attempts are spent, surface the
  // campaign failure. Returns nullopt on requeue.
  const auto retry_or_fail =
      [&](std::uint32_t index, const std::string& reason)
      -> std::optional<Status> {
    Slot& slot = slots[index - 1];
    slot.state = SlotState::pending;
    if (slot.attempts < options.max_attempts) {
      ++fleet.retries;
      XORIDX_OBS_COUNT("fleet.retries", 1);
      warn_line(options.reporter,
                "shard " + std::to_string(index) + " attempt " +
                    std::to_string(slot.attempts) + " failed (" + reason +
                    "); requeuing");
      return std::nullopt;
    }
    kill_running();
    return Status(StatusCode::internal,
                  "shard " + std::to_string(index) + " failed after " +
                      std::to_string(slot.attempts) + " attempts (" + reason +
                      "); worker log: " +
                      shard_log_path(options.work_dir, index));
  };

  // One worker exited: its report file is the sole verdict. A validated
  // report is accepted even if the exit status is odd (the checksum +
  // fingerprint already prove the bytes); anything else is a retry.
  const auto reap = [&](std::uint32_t index,
                        const WorkerExit& exit) -> std::optional<Status> {
    Slot& slot = slots[index - 1];
    const std::string report_file = shard_report_path(options.work_dir, index);
    auto loaded = shard::load_report(report_file);
    std::string reason;
    if (loaded.ok()) {
      const std::uint64_t cells = loaded.value().cells.size();
      if (loaded.value().shard_index != index) {
        reason = "report claims shard " +
                 std::to_string(loaded.value().shard_index) + ", expected " +
                 std::to_string(index);
      } else if (Status status = merger.add(std::move(loaded.value()));
                 !status.ok()) {
        reason = "report rejected: " + status.message();
      } else {
        slot.state = SlotState::landed;
        XORIDX_OBS_COUNT("fleet.shards_done", 1);
        XORIDX_OBS_COUNT("fleet.cells_landed", cells);
        // Chaos hook: `fleet.shard.landed=crash@k` SIGKILLs the driver
        // at the exact moment the k-th shard lands — the deterministic
        // driver-death scenario the resume tests and CI smoke replay.
        (void)XORIDX_FAILPOINT("fleet.shard.landed");
        return std::nullopt;
      }
      XORIDX_OBS_COUNT("fleet.reports_rejected", 1);
    } else if (!exit.ok()) {
      reason = !slot.kill_reason.empty() ? slot.kill_reason : exit.describe();
    } else {
      reason = "exited 0 without a valid report: " +
               loaded.status().message();
    }
    return retry_or_fail(index, reason);
  };

  while (!merger.complete()) {
    // Chaos hook: delay() widens poll-loop race windows, crash kills the
    // driver mid-sweep with workers in every state.
    (void)XORIDX_FAILPOINT("fleet.poll");
    if (options.cancel.cancelled()) {
      kill_running();
      return Status(StatusCode::cancelled, "fleet dispatch cancelled");
    }

    std::uint32_t running = 0;
    for (const Slot& slot : slots)
      if (slot.state == SlotState::running) ++running;
    for (std::uint32_t index = 1; index <= n && running < max_parallel;
         ++index) {
      if (slots[index - 1].state != SlotState::pending) continue;
      if (Status status = launch(index); !status.ok()) {
        kill_running();
        return status;
      }
      ++running;
      // Kill in the launching sweep, before the worker can have run: a
      // check at a later poll would race a small shard to its report.
      Slot& slot = slots[index - 1];
      if (options.inject_kill_shard == index && slot.attempts == 1) {
        slot.kill_reason = "killed by fault injection";
        XORIDX_OBS_COUNT("fleet.workers_killed", 1);
        launcher.kill(slot.handle);
      }
    }

    for (std::uint32_t index = 1; index <= n; ++index) {
      Slot& slot = slots[index - 1];
      if (slot.state != SlotState::running) continue;

      if (const auto exit = launcher.poll(slot.handle); exit.has_value()) {
        if (auto failed = reap(index, *exit); failed.has_value())
          return *failed;
        continue;
      }

      const std::string heartbeat =
          shard_heartbeat_path(options.work_dir, index);
      if (options.heartbeat_timeout_s > 0.0 && slot.kill_reason.empty()) {
        const auto age = heartbeat_age_s(heartbeat);
        const bool never_beat =
            !age.has_value() &&
            elapsed_s(slot.launched_at) > options.heartbeat_timeout_s;
        const bool stale =
            age.has_value() && *age > options.heartbeat_timeout_s;
        if (never_beat || stale) {
          slot.kill_reason =
              never_beat ? "no heartbeat after launch" : "heartbeat stale";
          XORIDX_OBS_COUNT("fleet.heartbeat_timeouts", 1);
          XORIDX_OBS_COUNT("fleet.workers_killed", 1);
          launcher.kill(slot.handle);
        }
      }
    }

    if (!merger.complete())
      (void)engine::interruptible_sleep(options.cancel,
                                        options.poll_interval_s);
  }

  auto merged = merger.finish();
  if (!merged.ok()) return merged.status();
  fleet.merged = std::move(merged.value());
  return fleet;
}

}  // namespace xoridx::fleet
