// xoridx_cli: command-line front end to the library, covering the whole
// design-time flow on trace files. All top-level operations go through
// the stable public API (xoridx/api.hpp): TraceRef for inputs, strategy
// specs for function classes, Status for errors.
//
//   xoridx_cli gen <workload> <data|fetch> <trace.bin>
//       Build a registry workload and save its trace.
//   xoridx_cli stats <trace.bin>
//       Print trace statistics.
//   xoridx_cli profile <trace.bin> <cache_bytes>
//       Run the Figure-1 profiler and print the top conflict vectors.
//   xoridx_cli optimize <trace.bin> <cache_bytes> <class> [fan_in] [out.fn]
//       Construct a function (class: permutation|bitselect|general, or
//       any search strategy spec) and optionally save it.
//   xoridx_cli simulate <trace.bin> <cache_bytes> [function.fn]
//       Simulate the trace with the conventional index or a saved one.
//   xoridx_cli engine <workloads> [options]
//       Run a trace x geometry x strategy sweep on the parallel
//       evaluation engine and stream results as CSV or JSON. With --mmap,
//       --trace files are streamed chunk-by-chunk through the trace
//       store instead of being materialized in memory. With --shard i/N
//       the process runs only its share of the campaign's cells (every
//       shard computes the same partition from the same arguments), and
//       --report-out saves the cells as a mergeable shard report.
//   xoridx_cli fleet <workloads> --shards N [options]
//       Run a sharded campaign across worker processes: partition with
//       the shard plan, launch one worker per shard (local fork/exec or
//       ssh), watch heartbeats, retry shards whose reports never arrive
//       or fail validation, and merge incrementally. The merged CSV is
//       byte-identical to the unsharded engine run.
//   xoridx_cli merge <shard.rpt>... [--out merged.rpt] [--csv file|-]
//           [--fleet-metrics-out m.prom]
//       Merge shard reports back into the unsharded campaign report;
//       the merged CSV is byte-identical to a single-process run.
//       --fleet-metrics-out writes the aggregated fleet snapshot
//       (counters summed, gauges max'd across shards) as OpenMetrics.
//   xoridx_cli trace-merge <spans.json>... [--out merged.json]
//       Stitch per-shard --trace-out files into one Perfetto-loadable
//       timeline with one named process track per input.
//   xoridx_cli serve [--listen host:port] [options]
//       Run the exploration daemon: concurrent NDJSON-over-TCP clients
//       share one engine, one byte-budgeted profile cache and a
//       whole-request memo. SIGINT/SIGTERM drain gracefully.
//   xoridx_cli serve-status <host:port> [--json]
//       Query a running daemon's admission/cache state.
//   xoridx_cli report info <file> [--json]
//       Print a shard report's header, observability section and
//       failing cells.
//   xoridx_cli report csv <file> [out]
//       Render a shard report's rows as CSV.
//   xoridx_cli trace convert <in> <out> [--to v1|v2] [--chunk N]
//       Convert between the v1 fixed-record and v2 chunk-compressed
//       trace formats, streaming (O(chunk) memory).
//   xoridx_cli trace info <file>
//       Print trace-file metadata: format, accesses, chunks, content id.
//   xoridx_cli --version
//       Print the library version and supported trace-format versions.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "hash/serialize.hpp"
#include "trace/trace_io.hpp"
#include "workloads/skeletons.hpp"
#include "workloads/workload.hpp"
#include "xoridx/fleet.hpp"
#include "xoridx/io.hpp"
#include "xoridx/obs.hpp"
#include "xoridx/serve.hpp"
#include "xoridx/shard.hpp"

namespace {

using namespace xoridx;

constexpr int hashed_bits = 16;

// ------------------------------------------------- graceful shutdown
// SIGINT/SIGTERM cancel rather than kill: engine/shard runs flush a
// valid partial report with unstarted cells marked cancelled, and the
// daemon drains in-flight requests before exiting. Both hooks are
// async-signal-safe (an atomic store and one self-pipe write).
engine::CancellationSource g_cancel;
serve::Server* g_server = nullptr;

extern "C" void handle_stop_signal(int /*sig*/) {
  g_cancel.cancel();
  if (g_server != nullptr) g_server->request_stop();
}

void install_stop_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  xoridx_cli gen <workload> <data|fetch> <trace.bin>\n"
               "  xoridx_cli stats <trace.bin>\n"
               "  xoridx_cli profile <trace.bin> <cache_bytes>\n"
               "  xoridx_cli optimize <trace.bin> <cache_bytes> "
               "<permutation|bitselect|general> [fan_in] [out.fn]\n"
               "  xoridx_cli simulate <trace.bin> <cache_bytes> "
               "[function.fn]\n"
               "  xoridx_cli engine <table2|powerstone|name[,name...]> "
               "[--caches B,B,...]\n"
               "      [--classes spec,spec,...] [--threads N] "
               "[--format csv|json]\n"
               "      [--trace file.bin]... [--mmap] [--small] [--out file]\n"
               "      [--shard i/N] [--report-out file] "
               "[--heartbeat file]\n"
               "      [--profile-cache-mb N]\n"
               "      [--metrics-out m.json] [--trace-out spans.json] "
               "[--progress[=ms]]\n"
               "    strategy specs: %s\n"
               "      (legacy aliases: classify general opt opt-est "
               "perm:<fan_in>)\n"
               "    with --report-out, a crash dumps the flight recorder "
               "to <report>.crash\n"
               "  xoridx_cli fleet <table2|powerstone|name[,name...]> "
               "--shards N\n"
               "      [--launcher exec|ssh:<host>] [--worker path] "
               "[--work-dir dir]\n"
               "      [--max-attempts N] [--max-parallel N] "
               "[--heartbeat-timeout s]\n"
               "      [--caches B,B,...] [--classes spec,...] "
               "[--trace file.bin]...\n"
               "      [--mmap] [--small] [--threads N] "
               "[--profile-cache-mb N]\n"
               "      [--out file] [--report-out file] "
               "[--fleet-metrics-out m.prom]\n"
               "      [--progress[=ms]] [--inject-kill i] [--resume]\n"
               "    --resume continues a campaign whose driver died: "
               "landed shard\n"
               "    reports are re-validated and merged, only missing "
               "shards run\n"
               "  xoridx_cli merge <shard.rpt>... [--out merged.rpt] "
               "[--csv file|-]\n"
               "      [--fleet-metrics-out m.prom]\n"
               "  xoridx_cli serve [--listen host:port] [--max-inflight N] "
               "[--queue N]\n"
               "      [--threads N] [--profile-cache-mb N] [--memo N]\n"
               "  xoridx_cli serve-status <host:port> [--json]\n"
               "  xoridx_cli trace-merge <spans.json>... "
               "[--out merged.json]\n"
               "  xoridx_cli report info <file> [--json]\n"
               "  xoridx_cli report csv <file> [out]\n"
               "  xoridx_cli trace convert <in> <out> [--to v1|v2] "
               "[--chunk N]\n"
               "  xoridx_cli trace info <file>\n"
               "  xoridx_cli --version\n"
               "  xoridx_cli --failpoints 'site=action[@n][;...]' "
               "<command> ...\n"
               "    fault injection (needs -DXORIDX_FAILPOINTS=ON; also "
               "via env\n"
               "    XORIDX_FAILPOINTS): actions error(<errno>), "
               "delay(<ms>), crash, off\n",
               api::strategy_grammar_summary().c_str());
  return 2;
}

/// Print an API error to stderr. Returns 1 for use as an exit code.
int fail(const api::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
  return 1;
}

/// Strict numeric argument: a fully-consumed decimal in [min, max].
/// Anything else — empty, trailing junk, overflow, out of range —
/// prints "error: <what> wants <wants>, got '<text>'" and returns
/// nullopt so the caller exits 2. Every numeric flag and positional
/// goes through here: atoi-style parsing silently turned garbage like
/// `--profile-cache-mb abc` into 0, disabling the option.
std::optional<long> parse_number(const char* what, const char* wants,
                                 const char* text, long min, long max) {
  char* end = nullptr;
  errno = 0;
  const long value = text != nullptr ? std::strtol(text, &end, 10) : 0;
  if (text == nullptr || *text == '\0' || end == nullptr || *end != '\0' ||
      errno == ERANGE || value < min || value > max) {
    std::fprintf(stderr, "error: %s wants %s, got '%s'\n", what, wants,
                 text != nullptr ? text : "");
    return std::nullopt;
  }
  return value;
}

/// Largest cache size GeometrySpec can carry (its fields are 32-bit).
constexpr long max_cache_bytes = 0xFFFFFFFFL;

/// Open an atomic output file for streamed writing, printing the error
/// on failure. Every file the CLI produces goes through this (or
/// save_report's own atomic path), so a crash or full disk leaves the
/// old file or no file — never a torn one that exits 0.
std::unique_ptr<io::AtomicOstream> open_output(const std::string& path) {
  auto os = std::make_unique<io::AtomicOstream>(path);
  if (const api::Status status = os->open(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
    return nullptr;
  }
  return os;
}

/// Commit an atomic output; any write error latched while streaming
/// (ENOSPC halfway through the CSV) surfaces here, naming the path.
int commit_output(io::AtomicOstream& os) {
  if (const api::Status status = os.commit(); !status.ok()) return fail(status);
  return 0;
}

/// Write the --metrics-out / --trace-out files (either may be empty).
/// Observability outputs only: the CSV/report bytes on stdout and disk
/// are already final when this runs. Returns 0 or an exit code.
int write_obs_outputs(const std::string& metrics_out,
                      const std::string& trace_out) {
  if (!metrics_out.empty()) {
    const auto os = open_output(metrics_out);
    if (!os) return 1;
    obs::registry().snapshot().write_json(*os);
    if (const int rc = commit_output(*os); rc != 0) return rc;
  }
  if (!trace_out.empty()) {
    obs::set_trace_enabled(false);
    const auto os = open_output(trace_out);
    if (!os) return 1;
    obs::write_chrome_trace(*os);
    if (const int rc = commit_output(*os); rc != 0) return rc;
    if (const std::uint64_t dropped = obs::spans_dropped(); dropped > 0)
      std::fprintf(stderr, "[obs] %llu spans dropped (ring buffer full)\n",
                   static_cast<unsigned long long>(dropped));
  }
  return 0;
}

int cmd_version() {
  const api::Version v = api::version();
  std::printf("xoridx %s (api %d.%d.%d, trace formats v%d-v%d)\n",
              api::version_string(), v.major, v.minor, v.patch,
              api::min_trace_format_version, api::max_trace_format_version);
  return 0;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 5) return usage();
  const trace::Trace t =
      std::strcmp(argv[3], "fetch") == 0
          ? workloads::synthesize_instructions(argv[2]).fetches
          : workloads::make_workload(argv[2]).data;
  trace::save_trace(argv[4], t);
  std::printf("wrote %zu references to %s\n", t.size(), argv[4]);
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 3) return usage();
  const api::Result<trace::Trace> loaded =
      api::TraceRef::file(argv[2]).load();
  if (!loaded.ok()) return fail(loaded.status());
  const trace::TraceStats s = loaded->stats(2);
  std::printf("references      %llu\n",
              static_cast<unsigned long long>(s.references));
  std::printf("reads/writes    %llu / %llu\n",
              static_cast<unsigned long long>(s.reads),
              static_cast<unsigned long long>(s.writes));
  std::printf("fetches         %llu\n",
              static_cast<unsigned long long>(s.fetches));
  std::printf("footprint       %llu blocks (4 B)\n",
              static_cast<unsigned long long>(s.distinct_blocks));
  std::printf("address range   [0x%llx, 0x%llx]\n",
              static_cast<unsigned long long>(s.min_addr),
              static_cast<unsigned long long>(s.max_addr));
  return 0;
}

int cmd_profile(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto cache_bytes =
      parse_number("profile <cache_bytes>", "a positive cache size in bytes",
                   argv[3], 1, max_cache_bytes);
  if (!cache_bytes) return 2;
  const api::GeometrySpec geom(static_cast<std::uint32_t>(*cache_bytes), 4);
  const api::Result<profile::ConflictProfile> built = api::build_profile(
      api::TraceRef::file(argv[2]), geom, hashed_bits);
  if (!built.ok()) return fail(built.status());
  const profile::ConflictProfile& p = *built;
  std::printf("references %llu: %llu compulsory, %llu capacity-filtered, "
              "%llu profiled\n",
              static_cast<unsigned long long>(p.references),
              static_cast<unsigned long long>(p.compulsory_refs),
              static_cast<unsigned long long>(p.capacity_filtered_refs),
              static_cast<unsigned long long>(p.profiled_refs));
  std::printf("%zu distinct conflict vectors, total mass %llu\n\n",
              p.distinct_vectors(),
              static_cast<unsigned long long>(p.total_mass()));

  // Top ten vectors by count.
  std::vector<std::pair<std::uint64_t, gf2::Word>> top;
  for (gf2::Word v = 1; v < (gf2::Word{1} << hashed_bits); ++v)
    if (p.misses(v) != 0) top.emplace_back(p.misses(v), v);
  std::sort(top.rbegin(), top.rend());
  std::printf("top conflict vectors (v = x XOR y, truncated to %d bits):\n",
              hashed_bits);
  for (std::size_t i = 0; i < std::min<std::size_t>(10, top.size()); ++i)
    std::printf("  %s  misses(v) = %llu\n",
                gf2::to_bit_string(top[i].second, hashed_bits).c_str(),
                static_cast<unsigned long long>(top[i].first));
  return 0;
}

int cmd_optimize(int argc, char** argv) {
  if (argc < 5) return usage();
  const auto cache_bytes =
      parse_number("optimize <cache_bytes>", "a positive cache size in bytes",
                   argv[3], 1, max_cache_bytes);
  if (!cache_bytes) return 2;
  const api::GeometrySpec geom(static_cast<std::uint32_t>(*cache_bytes), 4);
  // The class argument is a strategy spec ("permutation" and "general"
  // are grammar aliases). The fan-in argument and the paper's safety
  // fallback apply where the strategy supports them, matching the
  // pre-API CLI (fan-in was always accepted, ignored by bit-select).
  api::Result<api::Strategy> strategy = api::parse_strategy(argv[4]);
  if (!strategy.ok()) return fail(strategy.status());
  if (argc > 5) {
    const auto fan_in = parse_number("optimize [fan_in]",
                                     "a positive fan-in", argv[5], 1, 64);
    if (!fan_in) return 2;
    strategy->with_fan_in(static_cast<int>(*fan_in));
  }
  strategy->with_revert();

  const api::Result<api::TuneOutcome> tuned = api::tune(
      api::TraceRef::file(argv[2]), geom, *strategy, hashed_bits);
  if (!tuned.ok()) return fail(tuned.status());
  std::printf("baseline  %llu misses\noptimized %llu misses (%.1f%% removed)%s\n",
              static_cast<unsigned long long>(tuned->baseline_misses),
              static_cast<unsigned long long>(tuned->optimized_misses),
              tuned->reduction_percent(),
              tuned->reverted ? " [reverted]" : "");
  std::printf("%s", tuned->function->describe().c_str());
  if (argc > 6) {
    const auto os = open_output(argv[6]);
    if (!os) return 1;
    hash::write_function(*os, *tuned->function);
    if (const int rc = commit_output(*os); rc != 0) return rc;
    std::printf("saved to %s\n", argv[6]);
  }
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto cache_bytes =
      parse_number("simulate <cache_bytes>", "a positive cache size in bytes",
                   argv[3], 1, max_cache_bytes);
  if (!cache_bytes) return 2;
  const api::GeometrySpec geom(static_cast<std::uint32_t>(*cache_bytes), 4);
  std::unique_ptr<hash::IndexFunction> f;
  if (argc > 4) {
    std::ifstream is(argv[4]);
    if (!is) {
      std::fprintf(stderr, "cannot open %s\n", argv[4]);
      return 1;
    }
    f = hash::read_function(is);
  }
  const api::Result<cache::MissBreakdown> run = api::simulate(
      api::TraceRef::file(argv[2]), geom, f.get(), hashed_bits);
  if (!run.ok()) return fail(run.status());
  const cache::MissBreakdown& b = *run;
  std::printf("accesses  %llu\nmisses    %llu (%.2f%%)\n",
              static_cast<unsigned long long>(b.accesses),
              static_cast<unsigned long long>(b.misses),
              100.0 * static_cast<double>(b.misses) /
                  static_cast<double>(b.accesses));
  std::printf("  compulsory %llu, capacity %llu, conflict %llu\n",
              static_cast<unsigned long long>(b.compulsory),
              static_cast<unsigned long long>(b.capacity),
              static_cast<unsigned long long>(b.conflict));
  return 0;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// Build the sweep grid shared by `engine` and `fleet`: workload
/// selector → in-memory traces, plus trace files, cache sizes →
/// geometries, class specs → strategies. The fleet driver and its
/// workers must construct identical requests (the shard plan
/// fingerprint covers trace content, geometries and strategies), so
/// both commands go through this one function. Returns an exit code,
/// 0 on success.
int build_sweep_request(const std::string& selector, workloads::Scale scale,
                        const std::vector<std::string>& trace_files,
                        bool mmap_traces,
                        const std::vector<std::string>& cache_list,
                        const std::string& class_specs,
                        api::ExplorationRequest& request) {
  std::vector<std::string> names;
  if (selector == "table2") {
    names = workloads::workload_names(workloads::Suite::table2);
  } else if (selector == "powerstone") {
    names = workloads::workload_names(workloads::Suite::powerstone);
  } else if (selector != "-") {
    names = split(selector, ',');
  }
  for (const std::string& name : names) {
    workloads::Workload w = workloads::make_workload(name, scale);
    request.traces.push_back(
        api::TraceRef::memory(w.name, std::move(w.data)));
  }
  // Trace files are opened through the trace store: --mmap streams them
  // chunk by chunk (O(chunk) resident), otherwise they load eagerly.
  for (const std::string& file : trace_files)
    request.traces.push_back(mmap_traces ? api::TraceRef::streaming(file)
                                         : api::TraceRef::file(file));
  if (request.traces.empty()) {
    std::fprintf(stderr, "no traces selected\n");
    return usage();
  }

  for (const std::string& bytes : cache_list) {
    const auto n = parse_number("--caches", "a positive cache size in bytes",
                                bytes.c_str(), 1, max_cache_bytes);
    if (!n) return 2;
    request.geometries.emplace_back(static_cast<std::uint32_t>(*n), 4);
  }
  api::Result<std::vector<api::Strategy>> strategies =
      api::parse_strategies(class_specs);
  if (!strategies.ok()) {
    // The parse error names the offending token.
    std::fprintf(stderr, "error: %s\n",
                 strategies.status().to_string().c_str());
    return 2;
  }
  request.strategies = std::move(*strategies);
  return 0;
}

int cmd_engine(int argc, char** argv) {
  if (argc < 3) return usage();

  api::ExplorationRequest request;
  request.hashed_bits = hashed_bits;
  std::string format = "csv";
  std::string out_path;
  std::string shard_spec;
  std::string report_out;
  workloads::Scale scale = workloads::Scale::full;
  std::vector<std::string> cache_list = {"1024", "4096", "16384"};
  std::string class_specs = "base,perm:2,perm";
  std::vector<std::string> trace_files;
  bool mmap_traces = false;
  std::string metrics_out;
  std::string trace_out;
  std::string heartbeat_file;
  bool progress = false;
  double progress_interval_s = 1.0;

  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--small") {
      scale = workloads::Scale::small;
    } else if (arg == "--mmap") {
      mmap_traces = true;
    } else if (arg == "--caches") {
      const char* v = value();
      if (!v) return usage();
      cache_list = split(v, ',');
    } else if (arg == "--classes") {
      const char* v = value();
      if (!v) return usage();
      class_specs = v;
    } else if (arg == "--threads") {
      const char* v = value();
      // 0 keeps the "all hardware threads" default explicit.
      const auto n =
          parse_number("--threads", "a thread count (0 = all)", v, 0, 1024);
      if (!n) return 2;
      request.num_threads = static_cast<unsigned>(*n);
    } else if (arg == "--format") {
      const char* v = value();
      if (!v || (std::strcmp(v, "csv") != 0 && std::strcmp(v, "json") != 0))
        return usage();
      format = v;
    } else if (arg == "--trace") {
      const char* v = value();
      if (!v) return usage();
      trace_files.push_back(v);
    } else if (arg == "--out") {
      const char* v = value();
      if (!v) return usage();
      out_path = v;
    } else if (arg == "--shard") {
      const char* v = value();
      if (!v) return usage();
      shard_spec = v;
    } else if (arg == "--report-out") {
      const char* v = value();
      if (!v) return usage();
      report_out = v;
    } else if (arg == "--profile-cache-mb") {
      const char* v = value();
      const auto mb = parse_number("--profile-cache-mb",
                                   "a positive MiB budget", v, 1,
                                   std::numeric_limits<long>::max() >> 20);
      if (!mb) return 2;
      request.profile_cache_bytes = static_cast<std::size_t>(*mb) << 20;
    } else if (arg == "--heartbeat") {
      const char* v = value();
      if (!v) return usage();
      heartbeat_file = v;
    } else if (arg == "--metrics-out") {
      const char* v = value();
      if (!v) return usage();
      metrics_out = v;
    } else if (arg == "--trace-out") {
      const char* v = value();
      if (!v) return usage();
      trace_out = v;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg.rfind("--progress=", 0) == 0) {
      progress = true;
      const std::string token = arg.substr(std::strlen("--progress="));
      const auto ms = parse_number(
          "--progress", "a positive sample interval in milliseconds",
          token.c_str(), 1, std::numeric_limits<long>::max() / 1000);
      if (!ms) return 2;
      progress_interval_s = static_cast<double>(*ms) / 1000.0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
  }

  // Span recording starts before workloads are generated so profile
  // builds and the campaign itself all land in the trace.
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  // Ctrl-C / SIGTERM cancel at the next cell boundary: the sharded path
  // still writes its report with unstarted cells marked cancelled, the
  // one-shot path surfaces StatusCode::cancelled.
  request.cancel = g_cancel.token();
  install_stop_handlers();

  // A fleet worker starts beating before workload synthesis — trace
  // generation can take longer than the dispatcher's heartbeat timeout,
  // and a worker that is busy building its request is alive, not
  // wedged. The writer's destructor removes the file on every exit
  // path, so a clean exit never looks like a stall.
  std::optional<fleet::HeartbeatWriter> heartbeat;
  if (!heartbeat_file.empty()) {
    heartbeat.emplace(heartbeat_file);
    if (const api::Status beating = heartbeat->start(); !beating.ok())
      return fail(beating);
  }

  // --shard is validated before any trace is synthesized or loaded: a
  // malformed spec is a usage error (exit 2) naming the bad value, not
  // an assertion after seconds of workload generation.
  shard::ShardRef shard_ref;  // defaults to 1/1
  if (!shard_spec.empty()) {
    const api::Result<shard::ShardRef> parsed =
        shard::parse_shard_ref(shard_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   parsed.status().to_string().c_str());
      return 2;
    }
    shard_ref = *parsed;
  }
  const bool sharded = !shard_spec.empty() || !report_out.empty();
  if (sharded && format != "csv") {
    std::fprintf(stderr,
                 "error: --shard/--report-out produce CSV and report "
                 "files; --format json is not supported with them\n");
    return 2;
  }

  if (const int rc = build_sweep_request(argv[2], scale, trace_files,
                                         mmap_traces, cache_list, class_specs,
                                         request);
      rc != 0)
    return rc;

  std::unique_ptr<io::AtomicOstream> file_out;
  if (!out_path.empty()) {
    file_out = open_output(out_path);
    if (!file_out) return 1;
  }
  std::ostream& os = out_path.empty() ? std::cout : *file_out;

  if (sharded) {
    const api::Result<shard::ShardPlan> plan =
        shard::ShardPlan::partition(request, shard_ref.count);
    if (!plan.ok()) return fail(plan.status());
    std::uint64_t owned = 0;
    for (const shard::CellRange& r : plan->ranges(shard_ref.index))
      owned += r.size();
    std::fprintf(stderr,
                 "[engine] shard %s of request %s: %llu of %llu cells, "
                 "estimated %.0f cost units\n",
                 shard_ref.to_string().c_str(),
                 plan->fingerprint().to_string().c_str(),
                 static_cast<unsigned long long>(owned),
                 static_cast<unsigned long long>(plan->total_cells()),
                 plan->estimated_cost(shard_ref.index));
    // Label this worker's track so N per-shard --trace-out files remain
    // distinguishable after trace-merge; arm the flight recorder so a
    // crashed worker leaves <report>.crash next to where its report
    // would have landed.
    if (!trace_out.empty())
      obs::set_trace_process(static_cast<std::uint32_t>(::getpid()),
                             "shard " + shard_ref.to_string());
    if (!report_out.empty())
      obs::install_flight_recorder(report_out + ".crash");
    obs::ProgressReporter reporter(
        {.done_counter = "shard.cells_done",
         .error_counter = "shard.cell_errors",
         .total = owned,
         .label = "engine",
         .interval_s = progress_interval_s,
         // Watchdog: a shard that stops completing cells for ~10 sample
         // windows (at least 30s) is probably wedged — warn, naming the
         // cell run_shard last reported via set_activity.
         .stall_warn_s = std::max(30.0, 10.0 * progress_interval_s)});
    if (progress) reporter.start();
    const api::Result<shard::Report> report =
        shard::run_shard(request, *plan, shard_ref.index, &reporter);
    reporter.stop();
    if (!report.ok()) return fail(report.status());
    if (!report_out.empty())
      if (const api::Status saved = shard::save_report(*report, report_out);
          !saved.ok())
        return fail(saved);
    report->write_csv(os);
    if (file_out)
      if (const int rc = commit_output(*file_out); rc != 0) return rc;
    std::fprintf(stderr, "[engine] shard %s: %zu cells, %zu failed%s%s\n",
                 shard_ref.to_string().c_str(), report->cells.size(),
                 report->error_count(),
                 report_out.empty() ? "" : ", report saved to ",
                 report_out.c_str());
    if (const int rc = write_obs_outputs(metrics_out, trace_out); rc != 0)
      return rc;
    return report->error_count() == 0 ? 0 : 1;
  }

  std::unique_ptr<api::ResultSink> sink;
  if (format == "json")
    sink = std::make_unique<api::JsonSink>(os);
  else
    sink = std::make_unique<api::CsvSink>(os);
  request.sink = sink.get();

  std::fprintf(stderr,
               "[engine] %zu jobs (%zu traces x %zu geometries x %zu "
               "classes), %u threads\n",
               request.job_count(), request.traces.size(),
               request.geometries.size(), request.strategies.size(),
               request.num_threads == 0 ? api::default_threads()
                                        : request.num_threads);
  obs::ProgressReporter reporter(
      {.done_counter = "engine.jobs_completed",
       .error_counter = {},
       .total = static_cast<std::uint64_t>(request.job_count()),
       .label = "engine",
       .interval_s = progress_interval_s});
  if (progress) reporter.start();
  const api::Result<api::Report> report = api::Explorer::explore(request);
  reporter.stop();
  if (!report.ok()) return fail(report.status());
  std::fprintf(stderr, "[engine] profile cache: %llu built, %llu shared\n",
               static_cast<unsigned long long>(report->profiles_built),
               static_cast<unsigned long long>(report->profiles_shared));
  if (file_out)
    if (const int rc = commit_output(*file_out); rc != 0) return rc;
  return write_obs_outputs(metrics_out, trace_out);
}

/// Resolve this binary's path for the default fleet worker argv.
/// /proc/self/exe is exact (immune to PATH and cwd games); argv[0] is
/// the fallback on filesystems without procfs.
std::string self_executable(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

std::string join(const std::vector<std::string>& items, char sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += sep;
    out += items[i];
  }
  return out;
}

int cmd_fleet(int argc, char** argv) {
  if (argc < 3) return usage();

  api::ExplorationRequest request;
  request.hashed_bits = hashed_bits;
  workloads::Scale scale = workloads::Scale::full;
  std::vector<std::string> cache_list = {"1024", "4096", "16384"};
  std::string class_specs = "base,perm:2,perm";
  std::vector<std::string> trace_files;
  bool mmap_traces = false;
  long num_shards = 0;
  long max_attempts = 3;
  long max_parallel = 0;
  long heartbeat_timeout_s = 30;
  long inject_kill = 0;
  long worker_threads = -1;      // -1: leave workers at their default
  long profile_cache_mb = 0;     // 0: leave workers at their default
  std::string work_dir = "xoridx-fleet.work";
  std::string out_path;
  std::string report_out;
  std::string fleet_metrics_out;
  std::string worker_path;
  std::string launcher_spec = "exec";
  bool progress = false;
  bool resume = false;
  double progress_interval_s = 1.0;

  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--shards") {
      const auto n =
          parse_number("--shards", "a positive shard count", value(), 1,
                       4096);
      if (!n) return 2;
      num_shards = *n;
    } else if (arg == "--max-attempts") {
      const auto n = parse_number("--max-attempts",
                                  "a positive attempt count", value(), 1,
                                  100);
      if (!n) return 2;
      max_attempts = *n;
    } else if (arg == "--max-parallel") {
      const auto n = parse_number("--max-parallel",
                                  "a worker count (0 = all shards)", value(),
                                  0, 4096);
      if (!n) return 2;
      max_parallel = *n;
    } else if (arg == "--heartbeat-timeout") {
      const auto n = parse_number("--heartbeat-timeout",
                                  "a timeout in seconds (0 = off)", value(),
                                  0, 86400);
      if (!n) return 2;
      heartbeat_timeout_s = *n;
    } else if (arg == "--inject-kill") {
      const auto n = parse_number("--inject-kill", "a shard index", value(),
                                  1, 4096);
      if (!n) return 2;
      inject_kill = *n;
    } else if (arg == "--threads") {
      const auto n = parse_number("--threads",
                                  "a worker thread count (0 = all)", value(),
                                  0, 1024);
      if (!n) return 2;
      worker_threads = *n;
    } else if (arg == "--profile-cache-mb") {
      const auto mb = parse_number("--profile-cache-mb",
                                   "a positive MiB budget", value(), 1,
                                   std::numeric_limits<long>::max() >> 20);
      if (!mb) return 2;
      profile_cache_mb = *mb;
    } else if (arg == "--launcher") {
      const char* v = value();
      if (!v) return usage();
      launcher_spec = v;
    } else if (arg == "--worker") {
      const char* v = value();
      if (!v) return usage();
      worker_path = v;
    } else if (arg == "--work-dir") {
      const char* v = value();
      if (!v) return usage();
      work_dir = v;
    } else if (arg == "--out") {
      const char* v = value();
      if (!v) return usage();
      out_path = v;
    } else if (arg == "--report-out") {
      const char* v = value();
      if (!v) return usage();
      report_out = v;
    } else if (arg == "--fleet-metrics-out") {
      const char* v = value();
      if (!v) return usage();
      fleet_metrics_out = v;
    } else if (arg == "--caches") {
      const char* v = value();
      if (!v) return usage();
      cache_list = split(v, ',');
    } else if (arg == "--classes") {
      const char* v = value();
      if (!v) return usage();
      class_specs = v;
    } else if (arg == "--trace") {
      const char* v = value();
      if (!v) return usage();
      trace_files.push_back(v);
    } else if (arg == "--small") {
      scale = workloads::Scale::small;
    } else if (arg == "--mmap") {
      mmap_traces = true;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg.rfind("--progress=", 0) == 0) {
      progress = true;
      const std::string token = arg.substr(std::strlen("--progress="));
      const auto ms = parse_number(
          "--progress", "a positive sample interval in milliseconds",
          token.c_str(), 1, std::numeric_limits<long>::max() / 1000);
      if (!ms) return 2;
      progress_interval_s = static_cast<double>(*ms) / 1000.0;
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
  }
  if (num_shards < 1) {
    std::fprintf(stderr, "error: fleet needs --shards N (>= 1)\n");
    return 2;
  }

  request.cancel = g_cancel.token();
  install_stop_handlers();

  if (const int rc = build_sweep_request(argv[2], scale, trace_files,
                                         mmap_traces, cache_list, class_specs,
                                         request);
      rc != 0)
    return rc;

  // The dispatcher partitions again internally; this plan is for the
  // banner and the progress total (and catches request errors before
  // any worker is launched).
  const api::Result<shard::ShardPlan> plan = shard::ShardPlan::partition(
      request, static_cast<std::uint32_t>(num_shards));
  if (!plan.ok()) return fail(plan.status());

  // The worker argv re-derives the same request from the same selector
  // and flags — the plan fingerprint (trace content + geometries +
  // strategies) is what proves driver and worker agreed; a report from
  // a disagreeing worker is rejected and the shard retried.
  std::vector<std::string> worker_argv;
  worker_argv.push_back(worker_path.empty() ? self_executable(argv[0])
                                            : worker_path);
  worker_argv.push_back("engine");
  worker_argv.push_back(argv[2]);
  worker_argv.push_back("--shard");
  worker_argv.push_back("{shard}/{count}");
  worker_argv.push_back("--report-out");
  worker_argv.push_back("{report}");
  worker_argv.push_back("--heartbeat");
  worker_argv.push_back("{heartbeat}");
  worker_argv.push_back("--caches");
  worker_argv.push_back(join(cache_list, ','));
  worker_argv.push_back("--classes");
  worker_argv.push_back(class_specs);
  if (scale == workloads::Scale::small) worker_argv.push_back("--small");
  if (mmap_traces) worker_argv.push_back("--mmap");
  for (const std::string& file : trace_files) {
    worker_argv.push_back("--trace");
    worker_argv.push_back(file);
  }
  if (worker_threads >= 0) {
    worker_argv.push_back("--threads");
    worker_argv.push_back(std::to_string(worker_threads));
  }
  if (profile_cache_mb > 0) {
    worker_argv.push_back("--profile-cache-mb");
    worker_argv.push_back(std::to_string(profile_cache_mb));
  }

  fleet::ExecLauncher exec_launcher;
  std::optional<fleet::SshLauncher> ssh_launcher;
  fleet::Launcher* launcher = &exec_launcher;
  if (launcher_spec.rfind("ssh:", 0) == 0) {
    const std::string host = launcher_spec.substr(4);
    if (host.empty()) {
      std::fprintf(stderr, "error: --launcher ssh:<host> needs a host\n");
      return 2;
    }
    ssh_launcher.emplace(fleet::SshLauncher::Options{.host = host});
    launcher = &*ssh_launcher;
  } else if (launcher_spec != "exec") {
    std::fprintf(stderr,
                 "error: unknown launcher '%s' (want exec or ssh:<host>)\n",
                 launcher_spec.c_str());
    return 2;
  }

  std::fprintf(stderr,
               "[fleet] %ld shards of request %s: %llu cells, launcher %s, "
               "work dir %s\n",
               num_shards, plan->fingerprint().to_string().c_str(),
               static_cast<unsigned long long>(plan->total_cells()),
               launcher_spec.c_str(), work_dir.c_str());

  obs::ProgressReporter reporter(
      {.done_counter = "fleet.cells_landed",
       .error_counter = "fleet.retries",
       .total = plan->total_cells(),
       .label = "fleet",
       .interval_s = progress_interval_s,
       // Cells land in whole-shard batches, so allow a generous stall
       // window before warning; the real liveness check is the
       // dispatcher's heartbeat watchdog.
       .stall_warn_s = std::max(60.0, 10.0 * progress_interval_s)});
  if (progress) reporter.start();

  fleet::FleetOptions options;
  options.num_shards = static_cast<std::uint32_t>(num_shards);
  options.max_parallel = static_cast<std::uint32_t>(max_parallel);
  options.max_attempts = static_cast<std::uint32_t>(max_attempts);
  options.heartbeat_timeout_s = static_cast<double>(heartbeat_timeout_s);
  options.work_dir = work_dir;
  options.worker_argv = std::move(worker_argv);
  options.launcher = launcher;
  options.cancel = g_cancel.token();
  options.reporter = &reporter;
  options.inject_kill_shard = static_cast<std::uint32_t>(inject_kill);
  options.resume = resume;

  api::Result<fleet::FleetResult> result =
      fleet::dispatch_fleet(request, options);
  reporter.stop();
  if (!result.ok()) return fail(result.status());
  const shard::Report& merged = result->merged;

  std::unique_ptr<io::AtomicOstream> file_out;
  if (!out_path.empty()) {
    file_out = open_output(out_path);
    if (!file_out) return 1;
  }
  merged.write_csv(out_path.empty() ? std::cout : *file_out);
  if (file_out)
    if (const int rc = commit_output(*file_out); rc != 0) return rc;
  if (!report_out.empty())
    if (const api::Status saved = shard::save_report(merged, report_out);
        !saved.ok())
      return fail(saved);
  if (!fleet_metrics_out.empty()) {
    const auto os = open_output(fleet_metrics_out);
    if (!os) return 1;
    // Workers' aggregated obs sections plus the driver's own registry
    // (fleet.launches, fleet.retries, heartbeat/kill counters) — one
    // document for the whole fleet.
    obs::Snapshot fleet_snapshot = obs::registry().snapshot();
    if (merged.obs.has_value()) {
      fleet_snapshot.aggregate(merged.obs->snapshot);
    } else {
      std::fprintf(stderr,
                   "[fleet] warning: no worker carried an observability "
                   "section; fleet metrics cover only the driver\n");
    }
    fleet_snapshot.write_openmetrics(*os);
    if (const int rc = commit_output(*os); rc != 0) return rc;
  }
  std::fprintf(stderr,
               "[fleet] %ld shards merged: %u launches (%u requeued, "
               "%u resumed from disk), %zu cells, %zu failed\n",
               num_shards, result->launches, result->retries,
               result->resumed, merged.cells.size(), merged.error_count());
  return merged.error_count() == 0 ? 0 : 1;
}

int cmd_merge(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string out_path;
  std::string csv_path;
  std::string fleet_metrics_out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" || arg == "--csv" || arg == "--fleet-metrics-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option %s needs a value\n", arg.c_str());
        return usage();
      }
      (arg == "--out"   ? out_path
       : arg == "--csv" ? csv_path
                        : fleet_metrics_out) = argv[++i];
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage();

  std::vector<shard::Report> shards;
  for (const std::string& path : inputs) {
    api::Result<shard::Report> loaded = shard::load_report(path);
    if (!loaded.ok()) return fail(loaded.status());
    shards.push_back(std::move(*loaded));
  }
  const api::Result<shard::Report> merged =
      shard::merge_reports(std::move(shards));
  if (!merged.ok()) return fail(merged.status());

  if (!out_path.empty())
    if (const api::Status saved = shard::save_report(*merged, out_path);
        !saved.ok())
      return fail(saved);
  // Default to CSV on stdout so `merge a b c > out.csv` does the
  // expected thing when no destination options are given.
  if (!csv_path.empty() || out_path.empty()) {
    const bool to_stdout = csv_path.empty() || csv_path == "-";
    std::unique_ptr<io::AtomicOstream> file_out;
    if (!to_stdout) {
      file_out = open_output(csv_path);
      if (!file_out) return 1;
    }
    merged->write_csv(to_stdout ? std::cout : *file_out);
    if (file_out)
      if (const int rc = commit_output(*file_out); rc != 0) return rc;
  }
  if (!fleet_metrics_out.empty()) {
    const auto os = open_output(fleet_metrics_out);
    if (!os) return 1;
    std::ostream& metrics_os = *os;
    if (merged->obs.has_value()) {
      merged->obs->snapshot.write_openmetrics(metrics_os);
    } else {
      // Still a valid (empty) exposition, so downstream scrapers parse.
      obs::Snapshot{}.write_openmetrics(metrics_os);
      std::fprintf(stderr,
                   "[merge] warning: no shard carried an observability "
                   "section (v1 reports or obs-off workers); fleet metrics "
                   "are empty\n");
    }
    if (const int rc = commit_output(*os); rc != 0) return rc;
  }
  std::fprintf(stderr,
               "[merge] %zu shards -> %zu cells (%zu failed), request %s\n",
               inputs.size(), merged->cells.size(), merged->error_count(),
               merged->fingerprint.to_string().c_str());
  if (merged->obs.has_value())
    std::fprintf(stderr,
                 "[merge] fleet: makespan %.3fs, peak worker rss %.1f MiB, "
                 "%zu counters aggregated\n",
                 static_cast<double>(merged->obs->wall_ns) * 1e-9,
                 static_cast<double>(merged->obs->peak_rss_bytes) /
                     (1024.0 * 1024.0),
                 merged->obs->snapshot.counters.size());
  return 0;
}

int cmd_trace_merge(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string out_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option %s needs a value\n", arg.c_str());
        return usage();
      }
      out_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage();

  const bool to_stdout = out_path.empty() || out_path == "-";
  std::unique_ptr<io::AtomicOstream> file_out;
  if (!to_stdout) {
    file_out = open_output(out_path);
    if (!file_out) return 1;
  }
  if (const api::Status merged = obs::merge_chrome_traces(
          inputs, to_stdout ? std::cout : *file_out);
      !merged.ok())
    return fail(merged);
  if (file_out)
    if (const int rc = commit_output(*file_out); rc != 0) return rc;
  std::fprintf(stderr,
               "[trace-merge] %zu traces stitched (one process track "
               "each)%s%s\n",
               inputs.size(), to_stdout ? "" : " -> ", out_path.c_str());
  return 0;
}

int cmd_serve(int argc, char** argv) {
  serve::ServerOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--listen") {
      const char* v = value();
      if (!v) return usage();
      options.listen = v;
    } else if (arg == "--max-inflight") {
      const auto n = parse_number("--max-inflight",
                                  "a positive request count", value(), 1,
                                  1024);
      if (!n) return 2;
      options.service.max_inflight = static_cast<unsigned>(*n);
    } else if (arg == "--queue") {
      const auto n = parse_number("--queue", "a queue capacity (0 = none)",
                                  value(), 0, 1 << 20);
      if (!n) return 2;
      options.service.queue_capacity = static_cast<std::size_t>(*n);
    } else if (arg == "--threads") {
      const auto n =
          parse_number("--threads", "a positive thread count", value(), 1,
                       1024);
      if (!n) return 2;
      options.service.engine_threads = static_cast<unsigned>(*n);
    } else if (arg == "--profile-cache-mb") {
      const auto mb = parse_number("--profile-cache-mb",
                                   "a positive MiB budget", value(), 1,
                                   std::numeric_limits<long>::max() >> 20);
      if (!mb) return 2;
      options.service.profile_cache_bytes =
          static_cast<std::size_t>(*mb) << 20;
    } else if (arg == "--memo") {
      const auto n = parse_number("--memo", "a memo capacity (0 = off)",
                                  value(), 0, 1 << 20);
      if (!n) return 2;
      options.service.memo_capacity = static_cast<std::size_t>(*n);
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
  }

  serve::Server server(std::move(options));
  if (const api::Status bound = server.bind(); !bound.ok())
    return fail(bound);
  g_server = &server;
  install_stop_handlers();
  // One parseable line so scripts (and the CI smoke test) can discover
  // an ephemeral --listen :0 port.
  std::printf("listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  server.serve();
  g_server = nullptr;
  std::fprintf(stderr, "[serve] drained, bye\n");
  return 0;
}

/// Connect, send one command line, print response lines until the
/// wanted terminal event arrives. The tiny client half of the NDJSON
/// protocol, enough for scripting `serve-status` and smoke checks.
int cmd_serve_status(int argc, char** argv) {
  if (argc < 3) return usage();
  bool json = false;
  std::string address;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json")
      json = true;
    else if (address.empty())
      address = arg;
    else
      return usage();
  }
  if (address.empty()) return usage();
  const api::Result<std::pair<std::string, std::uint16_t>> parsed =
      serve::parse_listen_address(address);
  if (!parsed.ok()) return fail(parsed.status());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail({api::StatusCode::io_error, "socket failed"});
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(parsed->second);
  if (::inet_pton(AF_INET, parsed->first.c_str(), &sa.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) !=
          0) {
    ::close(fd);
    return fail({api::StatusCode::io_error,
                 "cannot connect to " + address +
                     " (is the daemon running?)"});
  }
  const char request[] = "{\"cmd\":\"status\"}\n";
  if (::send(fd, request, sizeof(request) - 1, 0) < 0) {
    ::close(fd);
    return fail({api::StatusCode::io_error, "send failed"});
  }
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line += c;
  ::close(fd);
  if (line.empty())
    return fail({api::StatusCode::io_error,
                 "daemon closed the connection without replying"});

  const api::Result<serve::JsonValue> reply = serve::parse_json(line);
  if (!reply.ok()) return fail(reply.status());
  if (json) {
    std::printf("%s\n", line.c_str());
    return 0;
  }
  const serve::JsonValue* status = reply->find("status");
  if (status == nullptr || !status->is_object())
    return fail({api::StatusCode::io_error,
                 "unexpected reply: " + line});
  for (const auto& [key, value] : status->members()) {
    if (value.is_object()) {
      for (const auto& [sub_key, sub_value] : value.members())
        std::printf("%-28s %lld\n", (key + "." + sub_key).c_str(),
                    static_cast<long long>(sub_value.as_int()));
    } else {
      std::printf("%-28s %lld\n", key.c_str(),
                  static_cast<long long>(value.as_int()));
    }
  }
  return 0;
}

int cmd_report_info(int argc, char** argv) {
  if (argc < 4) return usage();
  std::string path;
  bool json = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json")
      json = true;
    else if (path.empty())
      path = arg;
    else
      return usage();
  }
  if (path.empty()) return usage();
  const api::Result<shard::Report> loaded = shard::load_report(path);
  if (!loaded.ok()) return fail(loaded.status());
  const shard::Report& r = *loaded;
  if (json) {
    serve::JsonValue out = serve::JsonValue::object();
    out.set("format", static_cast<std::int64_t>(r.read_format));
    {
      std::ostringstream v;
      v << r.written_by.major << '.' << r.written_by.minor << '.'
        << r.written_by.patch;
      out.set("written_by", v.str());
    }
    out.set("request", r.fingerprint.to_string());
    serve::JsonValue shard_obj = serve::JsonValue::object();
    shard_obj.set("index", static_cast<std::int64_t>(r.shard_index));
    shard_obj.set("count", static_cast<std::int64_t>(r.num_shards));
    out.set("shard", std::move(shard_obj));
    serve::JsonValue grid = serve::JsonValue::object();
    grid.set("traces", static_cast<std::int64_t>(r.trace_count));
    grid.set("geometries", static_cast<std::int64_t>(r.geometry_count));
    grid.set("strategies", static_cast<std::int64_t>(r.strategy_count));
    grid.set("cells", static_cast<std::int64_t>(r.total_cells));
    out.set("grid", std::move(grid));
    serve::JsonValue cells = serve::JsonValue::object();
    cells.set("carried", static_cast<std::int64_t>(r.cells.size()));
    cells.set("ranges", static_cast<std::int64_t>(r.ranges.size()));
    cells.set("failed", static_cast<std::int64_t>(r.error_count()));
    out.set("cells", std::move(cells));
    if (r.obs.has_value()) {
      const shard::ObsSection& obs_section = *r.obs;
      serve::JsonValue obs_obj = serve::JsonValue::object();
      obs_obj.set("wall_s",
                  static_cast<double>(obs_section.wall_ns) * 1e-9);
      obs_obj.set("peak_rss_bytes",
                  static_cast<std::int64_t>(obs_section.peak_rss_bytes));
      serve::JsonValue counters = serve::JsonValue::object();
      for (const auto& [name, value] : obs_section.snapshot.counters)
        counters.set(name, static_cast<std::int64_t>(value));
      obs_obj.set("counters", std::move(counters));
      serve::JsonValue gauges = serve::JsonValue::object();
      for (const auto& [name, value] : obs_section.snapshot.gauges)
        gauges.set(name, static_cast<std::int64_t>(value));
      obs_obj.set("gauges", std::move(gauges));
      serve::JsonValue histograms = serve::JsonValue::object();
      for (const auto& [name, hist] : obs_section.snapshot.histograms) {
        serve::JsonValue h = serve::JsonValue::object();
        h.set("count", static_cast<std::int64_t>(hist.count));
        h.set("mean", hist.mean());
        h.set("max", static_cast<std::int64_t>(hist.max));
        histograms.set(name, std::move(h));
      }
      obs_obj.set("histograms", std::move(histograms));
      out.set("observability", std::move(obs_obj));
    } else {
      out.set("observability", serve::JsonValue());
    }
    serve::JsonValue failures = serve::JsonValue::array();
    for (const shard::Cell& cell : r.cells)
      if (!cell.ok()) {
        serve::JsonValue f = serve::JsonValue::object();
        f.set("cell", static_cast<std::int64_t>(cell.index));
        f.set("code", api::status_code_name(cell.error().code));
        f.set("message", cell.error().message);
        failures.push_back(std::move(f));
      }
    out.set("failures", std::move(failures));
    std::printf("%s\n", out.serialize().c_str());
    return 0;
  }
  std::printf("format          shard report v%u (this build reads v%u-v%u)\n",
              static_cast<unsigned>(r.read_format),
              static_cast<unsigned>(shard::min_report_format_version),
              static_cast<unsigned>(shard::report_format_version));
  std::printf("written by      xoridx %d.%d.%d\n", r.written_by.major,
              r.written_by.minor, r.written_by.patch);
  std::printf("request         %s\n", r.fingerprint.to_string().c_str());
  std::printf("shard           %u/%u\n", r.shard_index, r.num_shards);
  std::printf("grid            %u traces x %u geometries x %u strategies "
              "(%llu cells)\n",
              r.trace_count, r.geometry_count, r.strategy_count,
              static_cast<unsigned long long>(r.total_cells));
  std::printf("cells carried   %zu in %zu ranges, %zu failed\n",
              r.cells.size(), r.ranges.size(), r.error_count());
  if (r.obs.has_value()) {
    const shard::ObsSection& obs_section = *r.obs;
    std::printf("observability   wall %.3fs, peak rss %.1f MiB (fleet "
                "aggregate when merged)\n",
                static_cast<double>(obs_section.wall_ns) * 1e-9,
                static_cast<double>(obs_section.peak_rss_bytes) /
                    (1024.0 * 1024.0));
    for (const auto& [name, value] : obs_section.snapshot.counters)
      std::printf("  counter %-26s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    for (const auto& [name, value] : obs_section.snapshot.gauges)
      std::printf("  gauge   %-26s %lld\n", name.c_str(),
                  static_cast<long long>(value));
    for (const auto& [name, hist] : obs_section.snapshot.histograms)
      std::printf("  hist    %-26s count %llu, mean %.0f, max %llu\n",
                  name.c_str(),
                  static_cast<unsigned long long>(hist.count), hist.mean(),
                  static_cast<unsigned long long>(hist.max));
  } else {
    std::printf("observability   (none: v1 file or obs-off worker)\n");
  }
  for (const shard::Cell& cell : r.cells)
    if (!cell.ok())
      std::printf("  cell %llu failed: %s: %s\n",
                  static_cast<unsigned long long>(cell.index),
                  api::status_code_name(cell.error().code),
                  cell.error().message.c_str());
  return 0;
}

int cmd_report_csv(int argc, char** argv) {
  if (argc < 4) return usage();
  const api::Result<shard::Report> loaded = shard::load_report(argv[3]);
  if (!loaded.ok()) return fail(loaded.status());
  const bool to_stdout = argc < 5 || std::strcmp(argv[4], "-") == 0;
  std::unique_ptr<io::AtomicOstream> file_out;
  if (!to_stdout) {
    file_out = open_output(argv[4]);
    if (!file_out) return 1;
  }
  loaded->write_csv(to_stdout ? std::cout : *file_out);
  if (file_out) return commit_output(*file_out);
  return 0;
}

int cmd_report(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string sub = argv[2];
  if (sub == "info") return cmd_report_info(argc, argv);
  if (sub == "csv") return cmd_report_csv(argc, argv);
  return usage();
}

int cmd_trace_convert(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string in = argv[3];
  const std::string out = argv[4];
  tracestore::TraceFormat to = tracestore::TraceFormat::v2;
  std::uint32_t chunk = tracestore::default_chunk_capacity;
  for (int i = 5; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--to" && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "v1")
        to = tracestore::TraceFormat::v1;
      else if (v == "v2")
        to = tracestore::TraceFormat::v2;
      else
        return usage();
    } else if (arg == "--chunk" && i + 1 < argc) {
      const auto v = parse_number("--chunk", "a positive chunk capacity",
                                  argv[++i], 1, 0xFFFFFFFFL);
      if (!v) return 2;
      chunk = static_cast<std::uint32_t>(*v);
    } else {
      return usage();
    }
  }
  const api::Result<api::ConversionSummary> converted =
      api::convert_trace(in, out, to, chunk);
  if (!converted.ok()) return fail(converted.status());
  std::printf("wrote %s (%s, %llu accesses, %llu bytes, id %s)\n",
              out.c_str(), to == tracestore::TraceFormat::v2 ? "v2" : "v1",
              static_cast<unsigned long long>(converted->accesses),
              static_cast<unsigned long long>(converted->file_bytes),
              converted->id.to_string().c_str());
  return 0;
}

int cmd_trace_info(int argc, char** argv) {
  if (argc < 4) return usage();
  const api::Result<tracestore::TraceFileInfo> queried =
      api::trace_info(argv[3]);
  if (!queried.ok()) return fail(queried.status());
  const tracestore::TraceFileInfo& info = *queried;
  std::printf("format          v%d%s\n", info.version,
              info.version == 2 ? " (chunk-compressed)" : " (fixed records)");
  std::printf("accesses        %llu\n",
              static_cast<unsigned long long>(info.accesses));
  if (info.version == 2) {
    std::printf("chunks          %llu (capacity %u accesses)\n",
                static_cast<unsigned long long>(info.chunks),
                info.chunk_capacity);
  }
  std::printf("file size       %llu bytes (%.2f bytes/access)\n",
              static_cast<unsigned long long>(info.file_bytes),
              info.accesses == 0
                  ? 0.0
                  : static_cast<double>(info.file_bytes) /
                        static_cast<double>(info.accesses));
  std::printf("content id      %s\n", info.id.to_string().c_str());
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string sub = argv[2];
  if (sub == "convert") return cmd_trace_convert(argc, argv);
  if (sub == "info") return cmd_trace_info(argc, argv);
  return usage();
}

}  // namespace

namespace {

int run_command(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "--version" || command == "version") return cmd_version();
    if (command == "gen") return cmd_gen(argc, argv);
    if (command == "stats") return cmd_stats(argc, argv);
    if (command == "profile") return cmd_profile(argc, argv);
    if (command == "optimize") return cmd_optimize(argc, argv);
    if (command == "simulate") return cmd_simulate(argc, argv);
    if (command == "engine") return cmd_engine(argc, argv);
    if (command == "fleet") return cmd_fleet(argc, argv);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "serve-status") return cmd_serve_status(argc, argv);
    if (command == "merge") return cmd_merge(argc, argv);
    if (command == "trace-merge") return cmd_trace_merge(argc, argv);
    if (command == "report") return cmd_report(argc, argv);
    if (command == "trace") return cmd_trace(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}

/// Flush stdout and fold its state into the exit code. With SIGPIPE
/// ignored, a downstream consumer exiting early (`report csv big.rpt |
/// head`) surfaces as EPIPE on stdout — a clean early exit by
/// convention, not an error. Any other stdout failure (full disk behind
/// a redirect) must fail loudly: the bytes the caller asked for are not
/// all there.
int finish_stdout(int rc) {
  errno = 0;
  std::cout.flush();
  const bool cout_bad = std::cout.bad();
  const bool stdio_bad = std::fflush(stdout) != 0 || std::ferror(stdout) != 0;
  if (!cout_bad && !stdio_bad) return rc;
  if (errno == EPIPE) return rc;
  std::fprintf(stderr, "error: writing to stdout failed: %s\n",
               std::strerror(errno));
  return rc == 0 ? 1 : rc;
}

}  // namespace

int main(int argc, char** argv) {
  // `xoridx report csv big.rpt | head` must not die mid-pipe: with
  // SIGPIPE ignored, writes to a closed pipe return EPIPE instead,
  // which finish_stdout treats as a clean early exit.
  std::signal(SIGPIPE, SIG_IGN);
  // Chaos configuration: --failpoints <spec> (before the command) or
  // the XORIDX_FAILPOINTS environment variable. Rejected specs — and
  // any spec in a build compiled without -DXORIDX_FAILPOINTS=ON — are
  // usage errors: a chaos run that silently injects nothing would
  // report a pass it never earned.
  if (argc >= 2 && std::strcmp(argv[1], "--failpoints") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "error: --failpoints wants a spec "
                           "(site=action[@n][;...])\n");
      return 2;
    }
    if (const api::Status status = fail::configure(argv[2]); !status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
      return 2;
    }
    argv[2] = argv[0];  // keep argv[0] = program path after the shift
    argv += 2;
    argc -= 2;
  } else if (const api::Status status = fail::configure_from_env();
             !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
    return 2;
  }
  return finish_stdout(run_command(argc, argv));
}
