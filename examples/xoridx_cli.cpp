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
//       or fail validation, and merge incrementally. Each worker runs
//       `engine <workloads> --shard i/N ...` followed by the sweep flags
//       fleet was given, forwarded verbatim. The merged CSV is
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
//
// Every command parses its flags through one table-driven parser, and
// engine and fleet share one table for the seven sweep flags (--small
// --mmap --caches --classes --trace --threads --profile-cache-mb).
// Values are checked as they are parsed, so a bad command line exits 2
// before any work starts, with one of three messages:
//   unknown option X               (followed by the usage text)
//   option X needs a value         (followed by the usage text)
//   error: X wants ..., got '...'
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "hash/serialize.hpp"
#include "tracestore/store.hpp"
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

/// The one message for a malformed value: "error: <what> wants <wants>,
/// got '<text>'", plus the parser's reason when it gave one. Returns 2.
int bad_value(const char* what, const char* wants, const std::string& text,
              const std::string& reason = {}) {
  std::fprintf(stderr, "error: %s wants %s, got '%s'%s%s%s\n", what, wants,
               text.c_str(), reason.empty() ? "" : " (", reason.c_str(),
               reason.empty() ? "" : ")");
  return 2;
}

/// Strict number: a fully-consumed decimal in [min, max]. Anything else
/// — empty, trailing junk, overflow, out of range — is nullopt:
/// atoi-style parsing silently turned garbage like
/// `--profile-cache-mb abc` into 0, disabling the option.
std::optional<long> to_number(const std::string& text, long min, long max) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || value < min ||
      value > max)
    return std::nullopt;
  return value;
}

/// to_number for a positional or flag value, printing bad_value's
/// message on failure so the caller exits 2. Every numeric flag and
/// positional goes through here.
std::optional<long> parse_number(const char* what, const char* wants,
                                 const std::string& text, long min,
                                 long max) {
  const std::optional<long> value = to_number(text, min, max);
  if (!value) bad_value(what, wants, text);
  return value;
}

/// Largest cache size GeometrySpec can carry (its fields are 32-bit).
constexpr long max_cache_bytes = 0xFFFFFFFFL;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep))
    if (!item.empty()) out.push_back(item);
  return out;
}

// ------------------------------------------------------------ flag tables
// One row per flag; parse_flags prints the three exit-2 messages listed
// at the top of this file.

/// A number flag's target and bounds.
struct Number {
  long* out;
  long min;
  long max;
  /// Set only for --progress[=ms], the one optional-inline flag: the
  /// value a bare flag stores. Its value can only follow an '='.
  std::optional<long> bare = std::nullopt;
};

/// One flag: a toggle, a string, a repeatable string, or a bounded
/// number, by the type of `into`.
struct Flag {
  const char* name;
  std::variant<bool*, std::string*, std::vector<std::string>*, Number> into;
  /// What a valid value looks like, for bad_value (numbers and checked
  /// strings).
  const char* wants = nullptr;
  /// Checks a string value as it is parsed, so a malformed one exits 2
  /// before any work starts; an error's message is printed as the reason.
  api::Status (*check)(const std::string& value) = nullptr;
  /// When set, the flag and its value are appended here as typed.
  std::vector<std::string>* echo = nullptr;
};

using Flags = std::vector<Flag>;

/// Parse argv[first, argc) against `flags`. Words that are not flags (no
/// leading '-', or "-" itself) are appended to *positionals, or are
/// unknown options when positionals is null. Returns 0, or 2 after
/// printing one of the three exit-2 messages.
int parse_flags(int argc, char** argv, int first, const Flags& flags,
                std::vector<std::string>* positionals = nullptr) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (positionals != nullptr && (arg == "-" || !arg.starts_with('-'))) {
      positionals->push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const auto flag =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
          return arg.compare(0, eq, f.name) == 0;
        });
    const Number* number =
        flag == flags.end() ? nullptr : std::get_if<Number>(&flag->into);
    const bool optional_value = number != nullptr && number->bare;
    if (flag == flags.end() || (eq != std::string::npos && !optional_value)) {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return usage();
    }
    const int start = i;
    if (bool* const* on = std::get_if<bool*>(&flag->into)) {
      **on = true;
    } else if (optional_value && eq == std::string::npos) {
      *number->out = *number->bare;
    } else {
      std::string value;
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "option %s needs a value\n", arg.c_str());
        return usage();
      }
      if (number != nullptr) {
        const auto n = parse_number(flag->name, flag->wants, value,
                                    number->min, number->max);
        if (!n) return 2;
        *number->out = *n;
      } else if (flag->check != nullptr) {
        if (const api::Status status = flag->check(value); !status.ok())
          return bad_value(flag->name, flag->wants, value, status.message());
      }
      if (std::string* const* text = std::get_if<std::string*>(&flag->into))
        **text = value;
      else if (auto* const* texts =
                   std::get_if<std::vector<std::string>*>(&flag->into))
        (*texts)->push_back(value);
    }
    if (flag->echo != nullptr)
      flag->echo->insert(flag->echo->end(), argv + start, argv + i + 1);
  }
  return 0;
}

/// A Flag::check for a value from a fixed set.
api::Status one_of(const std::string& value,
                   std::initializer_list<std::string_view> choices) {
  if (std::find(choices.begin(), choices.end(), value) != choices.end())
    return {};
  return {api::StatusCode::invalid_argument, {}};
}

/// --caches: a comma-separated list of cache sizes in bytes.
api::Result<std::vector<api::GeometrySpec>> parse_caches(
    const std::string& list) {
  std::vector<api::GeometrySpec> geometries;
  for (const std::string& bytes : split(list, ',')) {
    const auto n = to_number(bytes, 1, max_cache_bytes);
    if (!n)
      return api::Status(api::StatusCode::invalid_argument,
                         "bad size '" + bytes + "'");
    geometries.emplace_back(static_cast<std::uint32_t>(*n), 4);
  }
  if (geometries.empty())
    return api::Status(api::StatusCode::invalid_argument, "no sizes given");
  return geometries;
}

/// The seven flags that define a sweep: its traces, cache sizes and
/// function classes, and the threads and profile-cache budget to run it
/// with. engine and fleet share this table, and fleet forwards the
/// tokens it matched to every worker as typed, so driver and workers
/// build the same request from the same words.
struct SweepFlags {
  bool small = false;
  bool mmap = false;
  std::string caches = "1024,4096,16384";
  std::string classes = "base,perm:2,perm";
  std::vector<std::string> traces;
  long threads = 0;           // 0 = all hardware threads
  long profile_cache_mb = 0;  // 0 = unlimited
  /// The sweep flags and values the parser matched, as typed.
  std::vector<std::string> tokens;

  Flags table() {
    Flags rows = {
        {"--small", &small},
        {"--mmap", &mmap},
        {"--caches", &caches,
         "a comma-separated list of cache sizes in bytes",
         [](const std::string& v) { return parse_caches(v).status(); }},
        {"--classes", &classes, "strategy specs",
         [](const std::string& v) {
           return api::parse_strategies(v).status();
         }},
        {"--trace", &traces},
        {"--threads", Number{&threads, 0, 1024}, "a thread count (0 = all)"},
        {"--profile-cache-mb",
         Number{&profile_cache_mb, 1,
                std::numeric_limits<long>::max() >> 20},
         "a positive MiB budget"},
    };
    for (Flag& row : rows) row.echo = &tokens;
    return rows;
  }
};

/// --progress[=ms]: progress lines every ms milliseconds (1000 when
/// bare); `ms` stays 0 when the flag is absent.
Flag progress_flag(long& ms) {
  return {"--progress",
          Number{&ms, 1, std::numeric_limits<long>::max() / 1000, 1000},
          "a positive sample interval in milliseconds"};
}

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
  const std::string side = argv[3];
  if (side != "data" && side != "fetch")
    return bad_value("gen", "data or fetch", side);
  const trace::Trace t =
      side == "fetch"
          ? workloads::synthesize_instructions(argv[2]).fetches
          : workloads::make_workload(argv[2]).data;
  tracestore::save_trace_v1(argv[4], t);
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

/// Build the sweep request shared by `engine` and `fleet` from the
/// workload selector and the sweep flags: workloads → in-memory traces,
/// plus trace files, cache sizes → geometries, class specs →
/// strategies. The fleet driver and its workers must construct
/// identical requests (the shard plan fingerprint covers trace content,
/// geometries and strategies), so both commands go through this one
/// function. The flags were checked as they were parsed. Returns an
/// exit code, 0 on success.
int build_sweep_request(const std::string& selector, const SweepFlags& sweep,
                        api::ExplorationRequest& request) {
  request.hashed_bits = hashed_bits;
  request.num_threads = static_cast<unsigned>(sweep.threads);
  request.profile_cache_bytes = static_cast<std::size_t>(sweep.profile_cache_mb)
                                << 20;
  request.geometries = parse_caches(sweep.caches).value();
  request.strategies = api::parse_strategies(sweep.classes).value();

  std::vector<std::string> names;
  if (selector == "table2") {
    names = workloads::workload_names(workloads::Suite::table2);
  } else if (selector == "powerstone") {
    names = workloads::workload_names(workloads::Suite::powerstone);
  } else if (selector != "-") {
    names = split(selector, ',');
  }
  const workloads::Scale scale =
      sweep.small ? workloads::Scale::small : workloads::Scale::full;
  for (const std::string& name : names) {
    workloads::Workload w = workloads::make_workload(name, scale);
    request.traces.push_back(
        api::TraceRef::memory(w.name, std::move(w.data)));
  }
  // Trace files are opened through the trace store: --mmap streams them
  // chunk by chunk (O(chunk) resident), otherwise they load eagerly.
  for (const std::string& file : sweep.traces)
    request.traces.push_back(sweep.mmap ? api::TraceRef::streaming(file)
                                        : api::TraceRef::file(file));
  if (request.traces.empty()) {
    std::fprintf(stderr, "no traces selected\n");
    return usage();
  }
  return 0;
}

int cmd_engine(int argc, char** argv) {
  if (argc < 3) return usage();

  SweepFlags sweep;
  std::string format = "csv";
  std::string out_path;
  std::string shard_spec;
  std::string report_out;
  std::string metrics_out;
  std::string trace_out;
  std::string heartbeat_file;
  long progress_ms = 0;
  Flags flags = sweep.table();
  flags.insert(
      flags.end(),
      {{"--format", &format, "csv or json",
        [](const std::string& v) { return one_of(v, {"csv", "json"}); }},
       {"--out", &out_path},
       // A malformed spec is a usage error naming the bad value, not an
       // assertion after seconds of workload generation.
       {"--shard", &shard_spec, "a shard i/N",
        [](const std::string& v) {
          return shard::parse_shard_ref(v).status();
        }},
       {"--report-out", &report_out},
       {"--heartbeat", &heartbeat_file},
       {"--metrics-out", &metrics_out},
       {"--trace-out", &trace_out},
       progress_flag(progress_ms)});
  if (const int rc = parse_flags(argc, argv, 3, flags); rc != 0) return rc;
  const double progress_s = static_cast<double>(progress_ms) / 1000.0;

  const bool sharded = !shard_spec.empty() || !report_out.empty();
  if (sharded && format != "csv") {
    std::fprintf(stderr,
                 "error: --shard/--report-out produce CSV and report "
                 "files; --format json is not supported with them\n");
    return 2;
  }
  const shard::ShardRef shard_ref =
      shard_spec.empty() ? shard::ShardRef{}  // 1/1
                         : shard::parse_shard_ref(shard_spec).value();

  // Span recording starts before workloads are generated so profile
  // builds and the campaign itself all land in the trace.
  if (!trace_out.empty()) obs::set_trace_enabled(true);

  // Ctrl-C / SIGTERM cancel at the next cell boundary: the sharded path
  // still writes its report with unstarted cells marked cancelled, the
  // one-shot path surfaces StatusCode::cancelled.
  api::ExplorationRequest request;
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

  if (const int rc = build_sweep_request(argv[2], sweep, request); rc != 0)
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
         .interval_s = progress_s,
         // Watchdog: a shard that stops completing cells for ~10 sample
         // windows (at least 30s) is probably wedged — warn, naming the
         // trace slice run_shard last reported via set_activity.
         .stall_warn_s = std::max(30.0, 10.0 * progress_s)});
    if (progress_ms > 0) reporter.start();
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
       .interval_s = progress_s});
  if (progress_ms > 0) reporter.start();
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

int cmd_fleet(int argc, char** argv) {
  if (argc < 3) return usage();

  SweepFlags sweep;
  long num_shards = 0;
  long max_attempts = 3;
  long max_parallel = 0;
  long heartbeat_timeout_s = 30;
  long inject_kill = 0;
  long progress_ms = 0;
  std::string work_dir = "xoridx-fleet.work";
  std::string out_path;
  std::string report_out;
  std::string fleet_metrics_out;
  std::string worker_path;
  std::string launcher_spec = "exec";
  bool resume = false;
  Flags flags = sweep.table();
  flags.insert(
      flags.end(),
      {{"--shards", Number{&num_shards, 1, 4096}, "a positive shard count"},
       {"--max-attempts", Number{&max_attempts, 1, 100},
        "a positive attempt count"},
       {"--max-parallel", Number{&max_parallel, 0, 4096},
        "a worker count (0 = all shards)"},
       {"--heartbeat-timeout", Number{&heartbeat_timeout_s, 0, 86400},
        "a timeout in seconds (0 = off)"},
       {"--inject-kill", Number{&inject_kill, 1, 4096}, "a shard index"},
       {"--launcher", &launcher_spec, "exec or ssh:<host>",
        [](const std::string& v) {
          return v == "exec" || (v.starts_with("ssh:") && v.size() > 4)
                     ? api::Status{}
                     : api::Status{api::StatusCode::invalid_argument, {}};
        }},
       {"--worker", &worker_path},
       {"--work-dir", &work_dir},
       {"--out", &out_path},
       {"--report-out", &report_out},
       {"--fleet-metrics-out", &fleet_metrics_out},
       {"--resume", &resume},
       progress_flag(progress_ms)});
  if (const int rc = parse_flags(argc, argv, 3, flags); rc != 0) return rc;
  if (num_shards < 1) {
    std::fprintf(stderr, "error: fleet needs --shards N (>= 1)\n");
    return 2;
  }
  const double progress_s = static_cast<double>(progress_ms) / 1000.0;

  api::ExplorationRequest request;
  request.cancel = g_cancel.token();
  install_stop_handlers();

  if (const int rc = build_sweep_request(argv[2], sweep, request); rc != 0)
    return rc;

  // The dispatcher partitions again internally; this plan is for the
  // banner and the progress total (and catches request errors before
  // any worker is launched).
  const api::Result<shard::ShardPlan> plan = shard::ShardPlan::partition(
      request, static_cast<std::uint32_t>(num_shards));
  if (!plan.ok()) return fail(plan.status());

  // Each worker re-derives the same request from the same selector and
  // the sweep flags exactly as typed here — the plan fingerprint (trace
  // content + geometries + strategies) is what proves driver and worker
  // agreed; a report from a disagreeing worker is rejected and the
  // shard retried.
  std::vector<std::string> worker_argv = {
      worker_path.empty() ? self_executable(argv[0]) : worker_path,
      "engine",
      argv[2],
      "--shard",
      "{shard}/{count}",
      "--report-out",
      "{report}",
      "--heartbeat",
      "{heartbeat}"};
  worker_argv.insert(worker_argv.end(), sweep.tokens.begin(),
                     sweep.tokens.end());

  fleet::ExecLauncher exec_launcher;
  std::optional<fleet::SshLauncher> ssh_launcher;
  fleet::Launcher* launcher = &exec_launcher;
  if (launcher_spec != "exec") {
    ssh_launcher.emplace(
        fleet::SshLauncher::Options{.host = launcher_spec.substr(4)});
    launcher = &*ssh_launcher;
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
       .interval_s = progress_s,
       // Cells land in whole-shard batches, so allow a generous stall
       // window before warning; the real liveness check is the
       // dispatcher's heartbeat watchdog.
       .stall_warn_s = std::max(60.0, 10.0 * progress_s)});
  if (progress_ms > 0) reporter.start();

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
  const std::string resumed =
      result->resumed == 0
          ? ""
          : ", " + std::to_string(result->resumed) + " resumed from disk";
  std::fprintf(stderr,
               "[fleet] %ld shards merged: %u launches (%u requeued%s), "
               "%zu cells, %zu failed\n",
               num_shards, result->launches, result->retries,
               resumed.c_str(), merged.cells.size(), merged.error_count());
  return merged.error_count() == 0 ? 0 : 1;
}

int cmd_merge(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string out_path;
  std::string csv_path;
  std::string fleet_metrics_out;
  const Flags flags = {{"--out", &out_path},
                       {"--csv", &csv_path},
                       {"--fleet-metrics-out", &fleet_metrics_out}};
  if (const int rc = parse_flags(argc, argv, 2, flags, &inputs); rc != 0)
    return rc;
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
  if (const int rc =
          parse_flags(argc, argv, 2, {{"--out", &out_path}}, &inputs);
      rc != 0)
    return rc;
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
  serve::ServiceOptions& service = options.service;
  long max_inflight = service.max_inflight;
  long queue = static_cast<long>(service.queue_capacity);
  long threads = service.engine_threads;
  long profile_cache_mb = static_cast<long>(service.profile_cache_bytes >> 20);
  long memo = static_cast<long>(service.memo_capacity);
  const Flags flags = {
      {"--listen", &options.listen},
      {"--max-inflight", Number{&max_inflight, 1, 1024},
       "a positive request count"},
      {"--queue", Number{&queue, 0, 1 << 20}, "a queue capacity (0 = none)"},
      {"--threads", Number{&threads, 1, 1024}, "a positive thread count"},
      {"--profile-cache-mb",
       Number{&profile_cache_mb, 1, std::numeric_limits<long>::max() >> 20},
       "a positive MiB budget"},
      {"--memo", Number{&memo, 0, 1 << 20}, "a memo capacity (0 = off)"}};
  if (const int rc = parse_flags(argc, argv, 2, flags); rc != 0) return rc;
  service.max_inflight = static_cast<unsigned>(max_inflight);
  service.queue_capacity = static_cast<std::size_t>(queue);
  service.engine_threads = static_cast<unsigned>(threads);
  service.profile_cache_bytes = static_cast<std::size_t>(profile_cache_mb)
                                << 20;
  service.memo_capacity = static_cast<std::size_t>(memo);

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
  bool json = false;
  std::vector<std::string> positionals;
  if (const int rc =
          parse_flags(argc, argv, 2, {{"--json", &json}}, &positionals);
      rc != 0)
    return rc;
  if (positionals.size() != 1) return usage();
  const std::string& address = positionals.front();
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
  bool json = false;
  std::vector<std::string> positionals;
  if (const int rc =
          parse_flags(argc, argv, 3, {{"--json", &json}}, &positionals);
      rc != 0)
    return rc;
  if (positionals.size() != 1) return usage();
  const api::Result<shard::Report> loaded =
      shard::load_report(positionals.front());
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
  std::vector<std::string> paths;
  std::string to_name = "v2";
  long chunk = tracestore::default_chunk_capacity;
  const Flags flags = {
      {"--to", &to_name, "v1 or v2",
       [](const std::string& v) { return one_of(v, {"v1", "v2"}); }},
      {"--chunk", Number{&chunk, 1, 0xFFFFFFFFL},
       "a positive chunk capacity"}};
  if (const int rc = parse_flags(argc, argv, 3, flags, &paths); rc != 0)
    return rc;
  if (paths.size() != 2) return usage();
  const std::string& in = paths[0];
  const std::string& out = paths[1];
  const tracestore::TraceFormat to = to_name == "v1"
                                         ? tracestore::TraceFormat::v1
                                         : tracestore::TraceFormat::v2;
  const api::Result<api::ConversionSummary> converted =
      api::convert_trace(in, out, to, static_cast<std::uint32_t>(chunk));
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
