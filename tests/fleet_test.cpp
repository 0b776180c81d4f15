// Fleet dispatch tests. The binary is its own worker: main() branches
// on `--fleet-worker <mode> <shard> <count> <report> <heartbeat>
// <marker_dir>` into a shard-worker process (the launcher argv template
// points back at this executable), so fork/exec, SIGKILL retries and
// heartbeat watchdogs are exercised against real processes without
// depending on the CLI binary's location. Worker fault modes are
// once-per-shard (a marker file records the first attempt), making
// every retry test deterministic: attempt 1 misbehaves, attempt 2
// succeeds.
//
// The acceptance property throughout: whatever workers are killed,
// write garbage, or belong to the wrong campaign, the merged report —
// and its CSV bytes — are identical to the unsharded run_campaign run.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "trace/generators.hpp"
#include "xoridx/api.hpp"
#include "xoridx/fleet.hpp"
#include "xoridx/io.hpp"
#include "xoridx/shard.hpp"

namespace xoridx::fleet {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(n, 0);
  buf[n > 0 ? n : 0] = '\0';
  return buf;
}

/// The canonical fleet campaign. Test process and worker processes must
/// construct the identical request — the shard plan fingerprint is what
/// the dispatcher validates reports against.
api::ExplorationRequest fleet_request() {
  api::ExplorationRequest request;
  request.traces.push_back(
      api::TraceRef::memory("stride", trace::stride_trace(0, 4096, 256)));
  request.traces.push_back(
      api::TraceRef::memory("stride2", trace::stride_trace(64, 8192, 192)));
  request.geometries = {api::GeometrySpec(1024, 4),
                        api::GeometrySpec(4096, 4)};
  request.strategies = api::parse_strategies("base,perm:2").value();
  return request;
}

/// The plan the dispatcher runs: fleet_request() in `shards` shards.
shard::ShardPlan fleet_plan(std::uint32_t shards = 3) {
  return shard::ShardPlan::partition(fleet_request(), shards).value();
}

/// A different campaign (different geometry set) — its reports carry a
/// different fingerprint and must be rejected by the dispatcher.
api::ExplorationRequest foreign_request() {
  api::ExplorationRequest request = fleet_request();
  request.geometries = {api::GeometrySpec(2048, 4)};
  return request;
}

std::string csv_of(const shard::Report& report) {
  std::ostringstream os;
  report.write_csv(os);
  return os.str();
}

/// Argv template for the self-exec worker. `only_shard` scopes the
/// fault mode to that one shard (0 = every shard misbehaves) so tests
/// that target a single shard don't strand the others in their fault.
std::vector<std::string> worker_argv(const std::string& mode,
                                     const std::string& marker_dir,
                                     std::uint32_t only_shard = 0) {
  return {self_exe(), "--fleet-worker", mode,          "{shard}",
          "{count}",  "{report}",       "{heartbeat}", marker_dir,
          std::to_string(only_shard)};
}

FleetOptions base_options(Launcher& launcher, const std::string& work_dir,
                          const std::string& mode) {
  FleetOptions options;
  options.max_attempts = 3;
  options.poll_interval_s = 0.01;
  options.work_dir = work_dir;
  options.worker_argv = worker_argv(mode, work_dir);
  options.launcher = &launcher;
  return options;
}

/// Dispatch and assert the merged result is identical — as a Report and
/// as CSV bytes — to the unsharded reference run.
void expect_byte_identical(const api::Result<FleetResult>& result) {
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const api::Result<shard::Report> reference =
      shard::run_campaign(fleet_request());
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();
  EXPECT_TRUE(result.value().merged == *reference);
  EXPECT_EQ(csv_of(result.value().merged), csv_of(*reference));
}

// ------------------------------------------------------------ launcher

TEST(Launcher, SubstitutesArgvTokens) {
  const std::vector<std::string> argv = substitute_argv(
      {"bin", "--shard", "{shard}/{count}", "--report-out", "{report}",
       "--heartbeat", "{heartbeat}", "plain"},
      2, 5, "/tmp/r.rpt", "/tmp/r.hb");
  EXPECT_EQ(argv[2], "2/5");
  EXPECT_EQ(argv[4], "/tmp/r.rpt");
  EXPECT_EQ(argv[6], "/tmp/r.hb");
  EXPECT_EQ(argv[7], "plain");
}

TEST(Launcher, ShellQuotingSurvivesHostileArguments) {
  EXPECT_EQ(SshLauncher::shell_quote("plain"), "'plain'");
  EXPECT_EQ(SshLauncher::shell_quote("with space"), "'with space'");
  EXPECT_EQ(SshLauncher::shell_quote("a'b"), "'a'\\''b'");
  EXPECT_EQ(SshLauncher::shell_join({"a", "b c"}), "'a' 'b c'");

  SshLauncher ssh({.host = "worker1"});
  const std::vector<std::string> local =
      ssh.command_for({"xoridx", "--label", "it's $HOME `x`"});
  ASSERT_EQ(local.size(), 4u);
  EXPECT_EQ(local[0], "ssh");
  EXPECT_EQ(local[1], "-oBatchMode=yes");
  EXPECT_EQ(local[2], "worker1");
  EXPECT_EQ(local[3], "'xoridx' '--label' 'it'\\''s $HOME `x`'");
}

TEST(Launcher, ExecSpawnsPollsAndReapsExitCode) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_exec");
  // fail_always exits 3 immediately, no report involved.
  WorkerCommand command;
  command.argv = {self_exe(), "--fleet-worker", "fail_always", "1", "1",
                  dir + "/r.rpt", dir + "/r.hb", dir};
  command.log_path = dir + "/w.log";
  const api::Result<WorkerHandle> handle = launcher.spawn(command);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  std::optional<WorkerExit> exit;
  for (int i = 0; i < 1000 && !exit.has_value(); ++i) {
    exit = launcher.poll(*handle);
    if (!exit.has_value()) ::usleep(5000);
  }
  ASSERT_TRUE(exit.has_value());
  EXPECT_FALSE(exit->signalled);
  EXPECT_EQ(exit->code, 3);
  EXPECT_EQ(exit->describe(), "exited 3");
}

TEST(Launcher, KillTerminatesWithSigkill) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_kill");
  WorkerCommand command;
  // sleep_once: beats, then sleeps forever on its first attempt.
  command.argv = {self_exe(), "--fleet-worker", "sleep_once", "1", "3",
                  dir + "/r.rpt", dir + "/r.hb", dir};
  const api::Result<WorkerHandle> handle = launcher.spawn(command);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  // Wait for the heartbeat: proof the child is up and sleeping.
  for (int i = 0; i < 1000 && !std::filesystem::exists(dir + "/r.hb"); ++i)
    ::usleep(5000);
  ASSERT_TRUE(std::filesystem::exists(dir + "/r.hb"));
  launcher.kill(*handle);
  std::optional<WorkerExit> exit;
  for (int i = 0; i < 1000 && !exit.has_value(); ++i) {
    exit = launcher.poll(*handle);
    if (!exit.has_value()) ::usleep(5000);
  }
  ASSERT_TRUE(exit.has_value());
  EXPECT_TRUE(exit->signalled);
  EXPECT_EQ(exit->signal, SIGKILL);
}

// ----------------------------------------------------------- heartbeat

TEST(Heartbeat, TouchCreatesAndAgeTracksIt) {
  const std::string dir = temp_dir("xoridx_fleet_hb");
  const std::string path = dir + "/beat.hb";
  EXPECT_FALSE(heartbeat_age_s(path).has_value());
  ASSERT_TRUE(touch_heartbeat(path).ok());
  const auto age = heartbeat_age_s(path);
  ASSERT_TRUE(age.has_value());
  EXPECT_LT(*age, 5.0);
}

TEST(Heartbeat, WriterBeatsOnStartAndRemovesOnStop) {
  const std::string dir = temp_dir("xoridx_fleet_hbw");
  const std::string path = dir + "/beat.hb";
  HeartbeatWriter writer(path, 0.05);
  ASSERT_TRUE(writer.start().ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  writer.stop();
  // A clean exit removes the file so it can never read as a stall.
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ------------------------------------------------------------ dispatch

TEST(FleetDispatch, MatchesUnshardedRunExactly) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_ok");
  const FleetOptions options = base_options(launcher, dir, "ok");
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  expect_byte_identical(result);
  EXPECT_EQ(result.value().launches, 3u);
  EXPECT_EQ(result.value().retries, 0u);
}

// The acceptance criterion: SIGKILL a worker; the dispatcher detects
// the death, requeues the shard, and the merged CSV is byte-identical to
// the single-process run.
TEST(FleetDispatch, KilledWorkerIsRequeuedAndMergeStaysByteIdentical) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_retry");
  // The injected kill lands in the sweep that launches shard 2's first
  // attempt, so even a worker that would finish on its own at once is
  // requeued exactly once.
  FleetOptions options = base_options(launcher, dir, "ok");
  options.inject_kill_shard = 2;
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  expect_byte_identical(result);
  EXPECT_EQ(result.value().retries, 1u);
  EXPECT_EQ(result.value().launches, 4u);
}

TEST(FleetDispatch, GarbageReportIsRejectedAndRetried) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_garbage");
  // Every shard's first attempt exits 0 after writing a corrupt report
  // — the load/checksum failure, not the exit status, drives the retry.
  const FleetOptions options = base_options(launcher, dir, "garbage_once");
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  expect_byte_identical(result);
  EXPECT_EQ(result.value().retries, 3u);
}

TEST(FleetDispatch, WrongCampaignReportIsRejectedAndRetried) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_foreign");
  // Shard 1's first attempt writes a structurally valid report that
  // belongs to a different request; the fingerprint check at merge
  // time catches it the moment it lands.
  const FleetOptions options = base_options(launcher, dir, "foreign_once");
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  expect_byte_identical(result);
  EXPECT_GE(result.value().retries, 1u);
}

TEST(FleetDispatch, SilentWorkerIsKilledByHeartbeatWatchdog) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_watchdog");
  // Shard 3's first attempt never heartbeats and never exits; only the
  // watchdog can recover it.
  FleetOptions options = base_options(launcher, dir, "silent_once");
  options.worker_argv = worker_argv("silent_once", dir);
  options.heartbeat_timeout_s = 1.0;
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  expect_byte_identical(result);
  EXPECT_GE(result.value().retries, 1u);
}

TEST(FleetDispatch, ExhaustedRetriesFailTheCampaign) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_exhausted");
  FleetOptions options = base_options(launcher, dir, "fail_always");
  options.max_attempts = 2;
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("failed after 2 attempts"),
            std::string::npos)
      << result.status().to_string();
  EXPECT_NE(result.status().message().find("worker log"), std::string::npos);
}

TEST(FleetDispatch, CancellationKillsWorkersAndReturnsCancelled) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_cancel");
  engine::CancellationSource cancel;
  cancel.cancel();  // fire before dispatch: the loop must exit promptly
  FleetOptions options = base_options(launcher, dir, "sleep_always");
  options.cancel = cancel.token();
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), api::StatusCode::cancelled);
}

TEST(FleetDispatch, RejectsMissingLauncherAndWorkDir) {
  FleetOptions options;
  EXPECT_FALSE(dispatch_fleet(fleet_plan(2), options).ok());
  ExecLauncher launcher;
  options.launcher = &launcher;
  EXPECT_FALSE(dispatch_fleet(fleet_plan(2), options).ok());
}

// The ssh backend end-to-end against a fake ssh: a shell script that
// ignores the host argument and runs the quoted remote command locally
// — exactly what a passwordless ssh to localhost would do, minus the
// daemon. Proves the quoting round-trips a real worker argv.
TEST(FleetDispatch, SshLauncherRoundTripsThroughFakeSsh) {
  const std::string dir = temp_dir("xoridx_fleet_ssh");
  const std::string fake_ssh = dir + "/fake-ssh";
  {
    std::ofstream os(fake_ssh);
    // argv: $1 = -oBatchMode=yes, $2 = host, $3 = quoted command.
    os << "#!/bin/sh\nexec /bin/sh -c \"$3\"\n";
  }
  std::filesystem::permissions(fake_ssh,
                               std::filesystem::perms::owner_all |
                                   std::filesystem::perms::group_read |
                                   std::filesystem::perms::others_read);
  SshLauncher launcher(
      {.host = "fake-host", .ssh_binary = fake_ssh});
  const FleetOptions options = base_options(launcher, dir, "ok");
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(2), options);
  expect_byte_identical(result);
}

// ------------------------------------------------------------ manifest

TEST(Manifest, SaveLoadRoundTrips) {
  const std::string dir = temp_dir("xoridx_fleet_manifest");
  Manifest manifest;
  manifest.fingerprint = {0x1234abcd, 0xfeed5678};
  manifest.num_shards = 3;
  manifest.total_cells = 12;
  manifest.attempts = {1, 0, 2};
  const std::string path = manifest_path(dir);
  ASSERT_TRUE(save_manifest(manifest, path).ok());
  const api::Result<Manifest> loaded = load_manifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().fingerprint, manifest.fingerprint);
  EXPECT_EQ(loaded.value().num_shards, 3u);
  EXPECT_EQ(loaded.value().total_cells, 12u);
  EXPECT_EQ(loaded.value().attempts, manifest.attempts);
}

TEST(Manifest, MissingFileIsNotFound) {
  const std::string dir = temp_dir("xoridx_fleet_manifest_missing");
  const api::Result<Manifest> loaded = load_manifest(manifest_path(dir));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), api::StatusCode::not_found);
}

TEST(Manifest, BitFlipAndTruncationAreRejected) {
  const std::string dir = temp_dir("xoridx_fleet_manifest_corrupt");
  Manifest manifest;
  manifest.fingerprint = {7, 9};
  manifest.num_shards = 2;
  manifest.total_cells = 8;
  manifest.attempts = {1, 1};
  const std::string path = manifest_path(dir);
  ASSERT_TRUE(save_manifest(manifest, path).ok());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    bytes = os.str();
  }
  {
    // Flip one field; the checksum trailer must catch it.
    std::string flipped = bytes;
    const std::size_t at = flipped.find("\"total_cells\":8");
    ASSERT_NE(at, std::string::npos);
    flipped[at + std::strlen("\"total_cells\":")] = '9';
    std::ofstream(path, std::ios::binary) << flipped;
    const api::Result<Manifest> loaded = load_manifest(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("checksum mismatch"),
              std::string::npos)
        << loaded.status().to_string();
  }
  {
    // A torn (half-written) manifest is rejected, not half-believed.
    std::ofstream(path, std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);
    EXPECT_FALSE(load_manifest(path).ok());
  }
}

TEST(Manifest, AttemptsListMustMatchShardCount) {
  const std::string dir = temp_dir("xoridx_fleet_manifest_shape");
  Manifest manifest;
  manifest.fingerprint = {1, 2};
  manifest.num_shards = 3;
  manifest.total_cells = 6;
  manifest.attempts = {1, 1};  // one short
  const std::string path = manifest_path(dir);
  ASSERT_TRUE(save_manifest(manifest, path).ok());
  const api::Result<Manifest> loaded = load_manifest(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("2 entries for 3 shards"),
            std::string::npos)
      << loaded.status().to_string();
}

// ------------------------------------------------------------- resume

TEST(FleetResume, RefusesWhenNoManifestExists) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_resume_none");
  FleetOptions options = base_options(launcher, dir, "ok");
  options.resume = true;
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("cannot resume fleet campaign"),
            std::string::npos)
      << result.status().to_string();
}

TEST(FleetResume, RefusesFingerprintMismatchByName) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_resume_foreign");
  // A manifest from some other campaign: same shard count, different
  // request identity.
  Manifest manifest;
  manifest.fingerprint = {0xdead, 0xbeef};
  manifest.num_shards = 3;
  manifest.total_cells = 1;
  manifest.attempts = {0, 0, 0};
  ASSERT_TRUE(save_manifest(manifest, manifest_path(dir)).ok());
  FleetOptions options = base_options(launcher, dir, "ok");
  options.resume = true;
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), api::StatusCode::invalid_argument);
  EXPECT_NE(result.status().message().find("different traces"),
            std::string::npos)
      << result.status().to_string();
}

TEST(FleetResume, RefusesShardCountMismatchByName) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_resume_shards");
  const api::Result<shard::ShardPlan> plan =
      shard::ShardPlan::partition(fleet_request(), 4);
  ASSERT_TRUE(plan.ok());
  Manifest manifest;
  manifest.fingerprint = plan.value().fingerprint();
  manifest.num_shards = 4;
  manifest.total_cells = plan.value().total_cells();
  manifest.attempts = {1, 1, 1, 1};
  ASSERT_TRUE(save_manifest(manifest, manifest_path(dir)).ok());
  FleetOptions options = base_options(launcher, dir, "ok");
  options.resume = true;
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(3), options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(
      result.status().message().find("4 shards but this run asks for 3"),
      std::string::npos)
      << result.status().to_string();
}

// The revalidation contract: a landed report re-enters the merge only
// if it passes the same checks a live reap applies. Here shard 2's
// report is intact, shard 1's is torn, shard 3 never ran — resume must
// merge exactly one from disk and launch exactly two.
TEST(FleetResume, RevalidatesLandedReportsAndLaunchesOnlyTheRest) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_resume_partial");
  const api::Result<shard::ShardPlan> plan =
      shard::ShardPlan::partition(fleet_request(), 3);
  ASSERT_TRUE(plan.ok());
  for (std::uint32_t index = 1; index <= 2; ++index) {
    const api::Result<shard::Report> report =
        shard::run_shard(fleet_request(), plan.value(), index);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    ASSERT_TRUE(
        shard::save_report(report.value(), shard_report_path(dir, index))
            .ok());
  }
  {
    // Tear shard 1's report in half, as a worker killed mid-write under
    // the pre-atomic protocol would have.
    const std::string path = shard_report_path(dir, 1);
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    const std::string bytes = os.str();
    is.close();
    std::ofstream(path, std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);
  }
  Manifest manifest;
  manifest.fingerprint = plan.value().fingerprint();
  manifest.num_shards = 3;
  manifest.total_cells = plan.value().total_cells();
  manifest.attempts = {1, 1, 0};
  ASSERT_TRUE(save_manifest(manifest, manifest_path(dir)).ok());

  FleetOptions options = base_options(launcher, dir, "ok");
  options.resume = true;
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  expect_byte_identical(result);
  EXPECT_EQ(result.value().resumed, 1u);    // shard 2, from disk
  EXPECT_EQ(result.value().launches, 2u);   // shards 1 and 3
  EXPECT_EQ(result.value().retries, 0u);
}

TEST(FleetResume, CompletedCampaignResumesWithZeroLaunches) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_resume_done");
  FleetOptions options = base_options(launcher, dir, "ok");
  const api::Result<FleetResult> first =
      dispatch_fleet(fleet_plan(), options);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  options.resume = true;
  const api::Result<FleetResult> again =
      dispatch_fleet(fleet_plan(), options);
  expect_byte_identical(again);
  EXPECT_EQ(again.value().resumed, 3u);
  EXPECT_EQ(again.value().launches, 0u);
}

TEST(FleetResume, ExhaustedManifestBudgetRefusesToRelaunch) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_resume_spent");
  const api::Result<shard::ShardPlan> plan =
      shard::ShardPlan::partition(fleet_request(), 3);
  ASSERT_TRUE(plan.ok());
  Manifest manifest;
  manifest.fingerprint = plan.value().fingerprint();
  manifest.num_shards = 3;
  manifest.total_cells = plan.value().total_cells();
  manifest.attempts = {3, 0, 0};  // shard 1 already burned every attempt
  ASSERT_TRUE(save_manifest(manifest, manifest_path(dir)).ok());
  FleetOptions options = base_options(launcher, dir, "ok");
  options.resume = true;
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("already consumed 3 attempts"),
            std::string::npos)
      << result.status().to_string();
}

// The acceptance criterion for this PR: SIGKILL the *driver* (and its
// whole process group, power-cut style) after two shards land, then
// --resume. The merged CSV must be byte-identical to the uninterrupted
// unsharded run, and the landed shards must not be re-executed.
TEST(FleetResume, KilledDriverResumesByteIdenticalWithoutRerunningShards) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_driver_kill");
  // The self-exec driver runs the campaign with shard 3's worker asleep
  // forever, so shards 1 and 2 land and the campaign then idles.
  WorkerCommand command;
  command.argv = {self_exe(), "--fleet-driver", dir};
  command.log_path = dir + "/driver.log";
  const api::Result<WorkerHandle> handle = launcher.spawn(command);
  ASSERT_TRUE(handle.ok()) << handle.status().to_string();
  bool landed = false;
  for (int i = 0; i < 6000 && !landed; ++i) {
    landed = std::filesystem::exists(shard_report_path(dir, 1)) &&
             std::filesystem::exists(shard_report_path(dir, 2)) &&
             std::filesystem::exists(manifest_path(dir));
    if (!landed) ::usleep(5000);
  }
  ASSERT_TRUE(landed) << "campaign never landed shards 1 and 2";
  // Kill the driver's process group: the driver and its sleeping worker
  // die between one instruction and the next, like a pulled plug.
  ::kill(-handle.value().pid, SIGKILL);
  std::optional<WorkerExit> exit;
  for (int i = 0; i < 1000 && !exit.has_value(); ++i) {
    exit = launcher.poll(*handle);
    if (!exit.has_value()) ::usleep(5000);
  }
  ASSERT_TRUE(exit.has_value());
  EXPECT_TRUE(exit->signalled);

  FleetOptions options = base_options(launcher, dir, "ok");
  options.resume = true;
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  expect_byte_identical(result);
  EXPECT_EQ(result.value().resumed, 2u);   // shards 1 and 2, from disk
  EXPECT_EQ(result.value().launches, 1u);  // only shard 3 runs again
}

// ---------------------------------------------------------- preflight

TEST(FleetPreflight, WorkDirCollidingWithAFileFailsFast) {
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_preflight_file");
  const std::string blocker = dir + "/blocker";
  std::ofstream(blocker) << "not a directory\n";
  FleetOptions options = base_options(launcher, dir, "ok");
  options.work_dir = blocker;
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(blocker), std::string::npos)
      << result.status().to_string();
}

TEST(FleetPreflight, InjectedReadOnlyVolumeFailsBeforeAnyLaunch) {
  if (!fail::compiled()) GTEST_SKIP() << "failpoints compiled out";
  ExecLauncher launcher;
  const std::string dir = temp_dir("xoridx_fleet_preflight_erofs");
  ASSERT_TRUE(fail::configure("fleet.preflight=error(EROFS)").ok());
  FleetOptions options = base_options(launcher, dir, "ok");
  const api::Result<FleetResult> result =
      dispatch_fleet(fleet_plan(), options);
  fail::reset();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("failed its write preflight"),
            std::string::npos)
      << result.status().to_string();
  EXPECT_NE(result.status().message().find(dir), std::string::npos)
      << result.status().to_string();
}

}  // namespace
}  // namespace xoridx::fleet

// ------------------------------------------------------- worker main
//
// This test binary doubles as the fleet worker. Defining main() here
// overrides the one in gtest_main (the linker prefers the executable's
// definition); gtest still runs normally when --fleet-worker is absent.

namespace {

int run_fleet_worker(int argc, char** argv) {
  using namespace xoridx;
  if (argc < 8) return 64;
  const std::string mode = argv[2];
  const auto shard_index = static_cast<std::uint32_t>(std::stoul(argv[3]));
  const auto num_shards = static_cast<std::uint32_t>(std::stoul(argv[4]));
  const std::string report_path = argv[5];
  const std::string heartbeat_path = argv[6];
  const std::string marker_dir = argv[7];
  // Shard the fault mode applies to; 0 (or absent) means every shard.
  const auto only_shard =
      argc > 8 ? static_cast<std::uint32_t>(std::stoul(argv[8])) : 0u;
  const bool targeted = only_shard == 0 || only_shard == shard_index;

  if (mode == "fail_always") return 3;

  // once-per-shard fault arming: the first attempt of a "*_once" mode
  // misbehaves, later attempts run normally.
  const std::string marker =
      marker_dir + "/attempted-" + mode + "-" + std::to_string(shard_index);
  const bool first = !std::filesystem::exists(marker);
  if (first) std::ofstream(marker) << "x\n";

  const bool misbehave =
      targeted &&
      (first || mode == "sleep_always");  // *_always modes never recover
  if (misbehave && mode == "silent_once") {
    ::sleep(600);  // no heartbeat, no exit: only the watchdog saves this
    return 0;
  }

  fleet::HeartbeatWriter heartbeat(heartbeat_path, 0.1);
  if (const api::Status beating = heartbeat.start(); !beating.ok()) return 65;

  if (misbehave && (mode == "sleep_once" || mode == "sleep_always")) {
    ::sleep(600);  // alive and beating, but never finishing
    return 0;
  }
  if (misbehave && mode == "garbage_once") {
    std::ofstream os(report_path, std::ios::binary);
    os << "this is not a shard report";
    return 0;
  }

  const api::ExplorationRequest request =
      misbehave && mode == "foreign_once"
          ? xoridx::fleet::foreign_request()
          : xoridx::fleet::fleet_request();
  const api::Result<shard::ShardPlan> plan =
      shard::ShardPlan::partition(request, num_shards);
  if (!plan.ok()) return 66;
  const api::Result<shard::Report> report =
      shard::run_shard(request, *plan, shard_index);
  if (!report.ok()) return 67;
  if (!shard::save_report(*report, report_path).ok()) return 68;
  return 0;
}

/// Self-exec fleet *driver* for the killed-driver resume test: runs the
/// canonical campaign with shard 3's worker sleeping forever, so shards
/// 1 and 2 land and the campaign then idles until the test SIGKILLs the
/// whole process group. setpgid makes this process the group leader so
/// one kill(-pid) takes out the driver and its workers together.
int run_fleet_driver(int argc, char** argv) {
  using namespace xoridx;
  if (argc < 3) return 64;
  ::setpgid(0, 0);
  const std::string work_dir = argv[2];
  fleet::ExecLauncher launcher;
  fleet::FleetOptions options =
      fleet::base_options(launcher, work_dir, "sleep_always");
  options.worker_argv =
      fleet::worker_argv("sleep_always", work_dir, /*only_shard=*/3);
  const api::Result<fleet::FleetResult> result =
      fleet::dispatch_fleet(fleet::fleet_plan(), options);
  return result.ok() ? 0 : 70;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--fleet-worker") == 0)
    return run_fleet_worker(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "--fleet-driver") == 0)
    return run_fleet_driver(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
