// Command-line contract of the built xoridx_cli (XORIDX_CLI is its path,
// set by CMake). Every command parses its flags through one table, so a
// bad command line exits 2 with one of three messages — "unknown option
// X", "option X needs a value", or "error: X wants ..., got '...'" —
// before any workload is synthesized. fleet forwards the sweep flags to
// its workers as typed, so a fleet run equals the engine run with the
// same flags.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Outcome {
  int exit_code = -1;
  std::string output;  // stdout and stderr together
};

/// Run the CLI with `args`, a shell word list.
Outcome run_cli(const std::string& args) {
  const std::string command = "'" XORIDX_CLI "' " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  Outcome outcome;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
    outcome.output.append(buf, n);
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) outcome.exit_code = WEXITSTATUS(status);
  return outcome;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("xoridx_cli_" + name))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Expect exit 2 and every word of `named` in the output.
void expect_usage_error(const std::string& args,
                        const std::vector<std::string>& named) {
  const Outcome run = run_cli(args);
  EXPECT_EQ(run.exit_code, 2) << args << "\n" << run.output;
  for (const std::string& word : named)
    EXPECT_NE(run.output.find(word), std::string::npos)
        << args << ": output does not name '" << word << "'\n"
        << run.output;
}

// The CI "Strict numeric flag smoke" cases plus --progress=abc and a bad
// --shard: exit 2, naming the flag and the bad token.
TEST(CliContract, MalformedNumbersAndSpecsNameTheFlagAndToken) {
  expect_usage_error("engine table2 --small --profile-cache-mb abc",
                     {"--profile-cache-mb", "'abc'"});
  expect_usage_error("engine table2 --small --threads 12x",
                     {"--threads", "'12x'"});
  expect_usage_error("engine table2 --small --caches 1024,huge",
                     {"--caches", "huge"});
  expect_usage_error("fleet table2 --small --shards banana",
                     {"--shards", "'banana'"});
  expect_usage_error("profile dijkstra 4z096", {"'4z096'"});
  expect_usage_error("serve --max-inflight -3", {"--max-inflight", "'-3'"});
  expect_usage_error("engine table2 --small --progress=abc",
                     {"--progress", "'abc'"});
  expect_usage_error("engine table2 --small --shard 0/3",
                     {"--shard", "0/3"});
}

// With a workload name that does not exist, synthesis would fail with
// exit 1: exit 2 proves the value was rejected before any synthesis.
TEST(CliContract, BadValuesExitBeforeAnyWorkloadIsSynthesized) {
  const std::string engine = "engine no_such_workload ";
  expect_usage_error(engine + "--caches 1024,huge", {"--caches", "huge"});
  expect_usage_error(engine + "--classes bogus", {"--classes", "bogus"});
  expect_usage_error(engine + "--threads 12x", {"--threads", "12x"});
  expect_usage_error(engine + "--format xml", {"--format", "xml"});
  expect_usage_error("fleet no_such_workload --shards 2 --launcher foo",
                     {"--launcher", "foo"});
  expect_usage_error("fleet no_such_workload --shards 2 --caches ,",
                     {"--caches"});
}

TEST(CliContract, UnknownOptionOnEveryCommand) {
  for (const std::string command :
       {"engine table2", "fleet table2 --shards 2", "serve", "merge a.rpt",
        "trace-merge a.json", "trace convert in.bin out.bin",
        "serve-status 127.0.0.1:1", "report info a.rpt"})
    expect_usage_error(command + " --no-such-flag",
                       {"unknown option --no-such-flag"});
}

TEST(CliContract, MissingValueOnEveryCommand) {
  expect_usage_error("engine table2 --small --out",
                     {"option --out needs a value"});
  expect_usage_error("engine table2 --small --threads",
                     {"option --threads needs a value"});
  expect_usage_error("fleet table2 --shards 2 --work-dir",
                     {"option --work-dir needs a value"});
  expect_usage_error("serve --listen", {"option --listen needs a value"});
  expect_usage_error("merge a.rpt --out", {"option --out needs a value"});
  expect_usage_error("trace-merge a.json --out",
                     {"option --out needs a value"});
  expect_usage_error("trace convert in.bin out.bin --to",
                     {"option --to needs a value"});
}

TEST(CliContract, GenRejectsAnUnknownTraceSide) {
  const std::string out = temp_path("gen_bogus.bin");
  std::filesystem::remove(out);
  expect_usage_error("gen lame bogus '" + out + "'", {"'bogus'"});
  EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(CliContract, EmptyCachesListIsAUsageError) {
  expect_usage_error("engine table2 --small --caches ,", {"--caches"});
}

// The worker argv ends with the driver's sweep tokens as typed: a fleet
// over a streamed v2 file, one thread per worker and a profile-cache
// budget must reproduce the engine run with the same flags.
TEST(CliContract, FleetForwardsSweepFlagsToItsWorkers) {
  const std::string v1 = temp_path("fwd.bin");
  const std::string v2 = temp_path("fwd.v2");
  const std::string work = temp_path("fwd.work");
  const std::string engine_csv = temp_path("fwd_engine.csv");
  const std::string fleet_csv = temp_path("fwd_fleet.csv");
  std::filesystem::remove_all(work);
  ASSERT_EQ(run_cli("gen adpcm_dec data '" + v1 + "'").exit_code, 0);
  ASSERT_EQ(run_cli("trace convert '" + v1 + "' '" + v2 + "' --to v2")
                .exit_code,
            0);
  const std::string flags = "--trace '" + v2 +
                            "' --mmap --threads 1 --profile-cache-mb 64 "
                            "--caches 1024,4096 --classes base,perm:2 ";
  const Outcome engine =
      run_cli("engine - " + flags + "--out '" + engine_csv + "'");
  ASSERT_EQ(engine.exit_code, 0) << engine.output;
  const Outcome fleet = run_cli("fleet - " + flags + "--shards 2 --work-dir '" +
                                work + "' --out '" + fleet_csv + "'");
  ASSERT_EQ(fleet.exit_code, 0) << fleet.output;
  EXPECT_NE(fleet.output.find("2 launches (0 requeued"), std::string::npos)
      << fleet.output;
  const std::string csv = read_file(engine_csv);
  EXPECT_FALSE(csv.empty());
  EXPECT_EQ(read_file(fleet_csv), csv);
  for (const std::string& path : {v1, v2, engine_csv, fleet_csv})
    std::filesystem::remove(path);
  std::filesystem::remove_all(work);
}

}  // namespace
