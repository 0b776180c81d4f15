// Durable I/O and failpoint tests.
//
// Two layers under test. First, the atomic-write protocol itself:
// AtomicFileWriter / AtomicOstream / write_file_atomic must land either
// the complete new file or leave the old one untouched — commit is the
// only transition, abandonment and destruction leave no trace, and
// every failure names the destination path. Second, the failpoint
// registry: the spec grammar parses (and misparses) identically in
// every build, compiled-out builds refuse active specs, and — in a
// -DXORIDX_FAILPOINTS=ON build — injected ENOSPC, @n triggers, and
// crash actions drive the torn-write scenarios the protocol exists to
// survive. Injection tests GTEST_SKIP() when fail::compiled() is
// false, so the default build still validates the grammar and the
// error paths reachable without injection.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/atomic_file.hpp"
#include "shard/report.hpp"
#include "trace/generators.hpp"
#include "tracestore/store.hpp"
#include "tracestore/writer.hpp"
#include "xoridx/io.hpp"

namespace xoridx {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// True when `dir` holds any `<base>.tmp.<pid>` leftover — the protocol
/// must clean its temp files up on every path except a hard crash.
bool has_temp_leftover(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().filename().string().find(".tmp.") != std::string::npos)
      return true;
  return false;
}

/// Every failpoint test restores a clean registry, even on assertion
/// failure, so a leaked rule cannot poison later tests.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::reset(); }
};
using FailpointInjection = FailpointTest;

// --------------------------------------------------- AtomicFileWriter

TEST(AtomicFile, WriteCommitLandsContentAndRemovesTemp) {
  const std::string dir = temp_dir("xoridx_io_commit");
  const std::string path = dir + "/out.txt";
  io::AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.open().ok());
  ASSERT_TRUE(writer.write("hello ").ok());
  ASSERT_TRUE(writer.write("world\n").ok());
  EXPECT_EQ(writer.offset(), 12u);
  ASSERT_TRUE(writer.commit().ok());
  EXPECT_TRUE(writer.committed());
  EXPECT_EQ(read_file(path), "hello world\n");
  EXPECT_FALSE(has_temp_leftover(dir));
}

TEST(AtomicFile, AbandonLeavesNoTrace) {
  const std::string dir = temp_dir("xoridx_io_abandon");
  const std::string path = dir + "/out.txt";
  io::AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.open().ok());
  ASSERT_TRUE(writer.write("doomed").ok());
  writer.abandon();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(has_temp_leftover(dir));
}

TEST(AtomicFile, DestructionWithoutCommitLeavesDestinationUntouched) {
  const std::string dir = temp_dir("xoridx_io_dtor");
  const std::string path = dir + "/out.txt";
  ASSERT_TRUE(io::write_file_atomic(path, "old").ok());
  {
    io::AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.open().ok());
    ASSERT_TRUE(writer.write("new and incomplete").ok());
    // Mid-flight: the destination is still entirely the old content.
    EXPECT_EQ(read_file(path), "old");
  }
  EXPECT_EQ(read_file(path), "old");
  EXPECT_FALSE(has_temp_leftover(dir));
}

TEST(AtomicFile, CommitReplacesOldContentWholesale) {
  const std::string dir = temp_dir("xoridx_io_replace");
  const std::string path = dir + "/out.txt";
  ASSERT_TRUE(io::write_file_atomic(path, "old").ok());
  io::AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.open().ok());
  ASSERT_TRUE(writer.write("new").ok());
  ASSERT_TRUE(writer.commit().ok());
  EXPECT_EQ(read_file(path), "new");
}

TEST(AtomicFile, WriteAtPatchesWithoutMovingAppendOffset) {
  const std::string dir = temp_dir("xoridx_io_patch");
  const std::string path = dir + "/out.bin";
  io::AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.open().ok());
  ASSERT_TRUE(writer.write("????rest\n").ok());
  ASSERT_TRUE(writer.write_at(0, "HEAD", 4).ok());
  EXPECT_EQ(writer.offset(), 9u);
  ASSERT_TRUE(writer.commit().ok());
  EXPECT_EQ(read_file(path), "HEADrest\n");
}

TEST(AtomicFile, OpenFailureNamesTheDestinationPath) {
  const std::string path = "/nonexistent-xoridx-dir/out.txt";
  io::AtomicFileWriter writer(path);
  const api::Status status = writer.open();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.to_string();
}

TEST(AtomicFile, WriteFileAtomicRoundTrips) {
  const std::string dir = temp_dir("xoridx_io_oneshot");
  const std::string path = dir + "/blob.bin";
  const std::string content(100000, 'x');
  ASSERT_TRUE(io::write_file_atomic(path, content).ok());
  EXPECT_EQ(read_file(path), content);
  EXPECT_FALSE(has_temp_leftover(dir));
}

// ------------------------------------------------------ AtomicOstream

TEST(AtomicStream, StreamsFormatAndCommit) {
  const std::string dir = temp_dir("xoridx_io_stream");
  const std::string path = dir + "/out.csv";
  io::AtomicOstream os(path);
  ASSERT_TRUE(os.open().ok());
  os << "a,b\n" << 42 << "," << 7 << "\n";
  ASSERT_TRUE(os.commit().ok());
  EXPECT_EQ(read_file(path), "a,b\n42,7\n");
  EXPECT_FALSE(has_temp_leftover(dir));
}

TEST(AtomicStream, OpenFailureNamesThePath) {
  const std::string path = "/nonexistent-xoridx-dir/out.csv";
  io::AtomicOstream os(path);
  const api::Status status = os.open();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.to_string();
}

TEST(AtomicStream, AbandonDiscardsEverything) {
  const std::string dir = temp_dir("xoridx_io_stream_drop");
  const std::string path = dir + "/out.csv";
  io::AtomicOstream os(path);
  ASSERT_TRUE(os.open().ok());
  os << "half a row";
  os.abandon();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(has_temp_leftover(dir));
}

// ----------------------------------- plain (uninjected) error naming
//
// Every artifact writer must name the path it could not write, in any
// build configuration.

TEST(ErrorNaming, ReportSaveToMissingDirectoryNamesPath) {
  const std::string path = "/nonexistent-xoridx-dir/shard-1.rpt";
  const api::Status status = shard::save_report(shard::Report{}, path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.to_string();
}

TEST(ErrorNaming, TraceSaveToMissingDirectoryNamesPath) {
  const std::string path = "/nonexistent-xoridx-dir/t.xtr";
  const trace::Trace t = trace::stride_trace(0, 1024, 16);
  try {
    tracestore::save_trace_v1(path, t);
    FAIL() << "save_trace_v1 to a missing directory should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(ErrorNaming, TracestoreWriterToMissingDirectoryNamesPath) {
  const std::string path = "/nonexistent-xoridx-dir/t.xts";
  try {
    tracestore::TraceWriter writer(path);
    FAIL() << "TraceWriter on a missing directory should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

// ------------------------------------------------- failpoint grammar

TEST_F(FailpointTest, EmptySpecIsAlwaysAccepted) {
  EXPECT_TRUE(fail::configure("").ok());
  EXPECT_TRUE(fail::configure(";;").ok());
}

TEST_F(FailpointTest, ParseErrorsNameTheOffendingToken) {
  const std::string bad[] = {
      "nonsense",                      // no '='
      "=error(EIO)",                   // empty site
      "x=",                            // empty action
      "x=explode",                     // unknown action
      "x=error(EBOGUS)",               // unknown errno name
      "x=error(-3)",                   // non-positive errno
      "x=delay(soon)",                 // non-numeric delay
      "x=error(EIO)@0",                // zero trigger count
      "x=error(EIO)@soon",             // non-numeric trigger count
  };
  for (const std::string& spec : bad) {
    const api::Status status = fail::configure(spec);
    ASSERT_FALSE(status.ok()) << spec;
    EXPECT_NE(status.message().find(spec), std::string::npos)
        << "'" << spec << "' -> " << status.to_string();
  }
}

TEST_F(FailpointTest, OffRulesInstallNothingInAnyBuild) {
  // `off` parses and drops out, so a spec of only-off rules is inert
  // even in a compiled-out build.
  EXPECT_TRUE(fail::configure("a=off;b=off@3").ok());
  EXPECT_EQ(fail::point("a"), 0);
}

TEST_F(FailpointTest, CompiledOutBuildRefusesActiveSpecs) {
  if (fail::compiled()) GTEST_SKIP() << "failpoints compiled in";
  const api::Status status = fail::configure("a=error(EIO)");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("compiled them out"), std::string::npos)
      << status.to_string();
}

TEST_F(FailpointTest, TriggerCountFiresOnExactlyTheNthEvaluation) {
  if (!fail::compiled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(fail::configure("t.site=error(EIO)@2").ok());
  EXPECT_EQ(fail::point("t.site"), 0);
  EXPECT_EQ(fail::point("t.site"), EIO);
  EXPECT_EQ(fail::point("t.site"), 0);
  EXPECT_EQ(fail::hits("t.site"), 3u);
  EXPECT_EQ(fail::point("unconfigured.site"), 0);
}

TEST_F(FailpointTest, ReconfigureReplacesRulesAndResetsHits) {
  if (!fail::compiled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(fail::configure("a=error(ENOSPC)").ok());
  EXPECT_EQ(fail::point("a"), ENOSPC);
  ASSERT_TRUE(fail::configure("b=error(EIO)").ok());
  EXPECT_EQ(fail::point("a"), 0);  // old rule gone
  EXPECT_EQ(fail::point("b"), EIO);
  fail::reset();
  EXPECT_EQ(fail::point("b"), 0);
}

// ----------------------------------------------- injected I/O faults

TEST_F(FailpointInjection, EnospcOnWriteAbortsAndNamesPath) {
  if (!fail::compiled()) GTEST_SKIP() << "failpoints compiled out";
  const std::string dir = temp_dir("xoridx_io_enospc");
  const std::string path = dir + "/out.txt";
  ASSERT_TRUE(fail::configure("io.atomic.write=error(ENOSPC)").ok());
  const api::Status status = io::write_file_atomic(path, "doomed");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.to_string();
  EXPECT_NE(status.message().find(std::strerror(ENOSPC)), std::string::npos)
      << status.to_string();
  // No destination, no temp: the failed write left nothing behind.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(has_temp_leftover(dir));
}

TEST_F(FailpointInjection, EnospcOnSecondWriteOnlyViaTriggerCount) {
  if (!fail::compiled()) GTEST_SKIP() << "failpoints compiled out";
  const std::string dir = temp_dir("xoridx_io_enospc_at");
  ASSERT_TRUE(fail::configure("io.atomic.write=error(ENOSPC)@2").ok());
  // First file: one write() call — survives.
  EXPECT_TRUE(io::write_file_atomic(dir + "/first.txt", "ok").ok());
  // Second file: its write() is the second evaluation — fails.
  EXPECT_FALSE(io::write_file_atomic(dir + "/second.txt", "doomed").ok());
  EXPECT_TRUE(std::filesystem::exists(dir + "/first.txt"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/second.txt"));
}

TEST_F(FailpointInjection, FsyncFailureLeavesOldContentIntact) {
  if (!fail::compiled()) GTEST_SKIP() << "failpoints compiled out";
  const std::string dir = temp_dir("xoridx_io_fsync");
  const std::string path = dir + "/out.txt";
  ASSERT_TRUE(io::write_file_atomic(path, "old").ok());
  ASSERT_TRUE(fail::configure("io.atomic.fsync=error(EIO)").ok());
  EXPECT_FALSE(io::write_file_atomic(path, "new").ok());
  EXPECT_EQ(read_file(path), "old");
  EXPECT_FALSE(has_temp_leftover(dir));
}

// The power-cut scenario: the process dies by SIGKILL between writing
// the temp file and renaming it into place. The destination must still
// be entirely the old content (the leftover temp file is the only
// permissible debris).
TEST_F(FailpointInjection, CrashMidRenameLeavesOldContentIntact) {
  if (!fail::compiled()) GTEST_SKIP() << "failpoints compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = temp_dir("xoridx_io_crash");
  const std::string path = dir + "/out.txt";
  ASSERT_TRUE(io::write_file_atomic(path, "old").ok());
  EXPECT_EXIT(
      {
        if (!fail::configure("io.atomic.rename=crash").ok()) ::_exit(90);
        (void)io::write_file_atomic(path, "new");
        ::_exit(91);  // unreachable: crash fires inside commit()
      },
      ::testing::KilledBySignal(SIGKILL), "");
  EXPECT_EQ(read_file(path), "old");
}

TEST_F(FailpointInjection, ReportWriteEnospcLeavesNoFileAndNamesPath) {
  if (!fail::compiled()) GTEST_SKIP() << "failpoints compiled out";
  const std::string dir = temp_dir("xoridx_io_report");
  const std::string path = dir + "/shard-1.rpt";
  ASSERT_TRUE(fail::configure("shard.report.write=error(ENOSPC)").ok());
  const api::Status status = shard::save_report(shard::Report{}, path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.to_string();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(FailpointInjection, TracestoreWriteFailureThrowsAndLeavesNoFile) {
  if (!fail::compiled()) GTEST_SKIP() << "failpoints compiled out";
  const std::string dir = temp_dir("xoridx_io_tracestore");
  const std::string path = dir + "/t.xts";
  {
    tracestore::TraceWriter writer(path);
    for (std::uint64_t i = 0; i < 64; ++i)
      writer.append(i * 64, trace::AccessKind::read);
    ASSERT_TRUE(fail::configure("tracestore.write=error(ENOSPC)").ok());
    try {
      (void)writer.finish();
      FAIL() << "finish under injected ENOSPC should throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
    // Destruction retries finish(), fails again, and abandons the temp.
  }
  fail::reset();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(has_temp_leftover(dir));
}

TEST_F(FailpointInjection, TraceSaveEnospcThrowsNamingPath) {
  if (!fail::compiled()) GTEST_SKIP() << "failpoints compiled out";
  const std::string dir = temp_dir("xoridx_io_trace");
  const std::string path = dir + "/t.xtr";
  ASSERT_TRUE(fail::configure("io.atomic.write=error(ENOSPC)").ok());
  const trace::Trace t = trace::stride_trace(0, 1024, 16);
  try {
    tracestore::save_trace_v1(path, t);
    FAIL() << "save_trace_v1 under injected ENOSPC should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  fail::reset();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(FailpointInjection, DelayActionSleepsThenProceeds) {
  if (!fail::compiled()) GTEST_SKIP() << "failpoints compiled out";
  const std::string dir = temp_dir("xoridx_io_delay");
  ASSERT_TRUE(fail::configure("io.atomic.write=delay(1)").ok());
  EXPECT_TRUE(io::write_file_atomic(dir + "/out.txt", "ok").ok());
  EXPECT_EQ(read_file(dir + "/out.txt"), "ok");
}

}  // namespace
}  // namespace xoridx
