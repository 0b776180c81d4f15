// The `table2` and `sweep` workloads.
//
// A run sets the inputs up, times cold campaigns through api::Explorer
// (a fresh ProfileCache each, CSV committed through io::AtomicOstream,
// as `xoridx_cli engine --out` pays it), then replays every cell through
// the layers' public functions and requires each campaign row to equal
// the replay's row byte for byte. A traced run records spans around the
// replayed calls and reconciles its counts with the library's own obs
// counters.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "api/explorer.hpp"
#include "bench.hpp"
#include "cache/simulate.hpp"
#include "engine/report.hpp"
#include "hash/bit_select_function.hpp"
#include "hash/permutation_function.hpp"
#include "hash/xor_function.hpp"
#include "io/atomic_file.hpp"
#include "obs/metrics.hpp"
#include "profile/conflict_profile.hpp"
#include "search/bit_select_search.hpp"
#include "search/exhaustive_bit_select.hpp"
#include "search/permutation_search.hpp"
#include "search/subspace_search.hpp"
#include "spans.hpp"
#include "tracestore/store.hpp"
#include "tracestore/writer.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace xoridx;

constexpr int kHashedBits = 16;
constexpr int kSetups = 31;  ///< set-ups per untraced run

struct CampaignConfig {
  workloads::Scale scale = workloads::Scale::full;
  bool streaming = false;  ///< v2 files read through MmapTraceReader
  std::vector<std::uint32_t> caches;
  std::string strategies;
  unsigned workers = 1;
};

CampaignConfig config_for(const RunOptions& options) {
  if (options.workload == "table2")
    return {workloads::Scale::full, false, {1024, 4096, 16384},
            "base,perm:2,perm", 1};
  if (options.workload == "sweep")
    return {workloads::Scale::small,
            true,
            {1024, 4096},
            "base,fa,3c,perm:restarts=4:seed=" + std::to_string(options.seed) +
                ",xor,bitselect:est,bitselect:exact",
            2};
  throw std::invalid_argument("not a campaign workload: " + options.workload);
}

/// The campaign's traces: in memory, or as v2 files written at set-up.
struct Inputs {
  std::vector<std::string> names;
  std::vector<std::shared_ptr<const trace::Trace>> traces;  ///< in-memory
  std::vector<std::string> paths;                           ///< streaming
  std::vector<std::uint64_t> sizes;  ///< accesses per trace
  std::uint64_t accesses = 0;
};

Inputs set_up(const CampaignConfig& config, const std::string& out_dir,
              Tracer* tracer) {
  Inputs inputs;
  for (const std::string& name :
       workloads::workload_names(workloads::Suite::table2)) {
    workloads::Workload w;
    {
      const ScopedSpan span(tracer, "workloads.synth");
      w = workloads::make_workload(name, config.scale);
    }
    inputs.names.push_back(name);
    inputs.sizes.push_back(w.data.size());
    inputs.accesses += w.data.size();
    if (config.streaming) {
      const std::string path = out_dir + "/traces/" + name + ".v2";
      const ScopedSpan span(tracer, "tracestore.write");
      (void)tracestore::save_trace_v2(path, w.data);
      inputs.paths.push_back(path);
    } else {
      inputs.traces.push_back(
          std::make_shared<const trace::Trace>(std::move(w.data)));
    }
  }
  return inputs;
}

std::vector<api::Strategy> parse_or_throw(const std::string& specs) {
  api::Result<std::vector<api::Strategy>> parsed =
      api::parse_strategies(specs);
  if (!parsed.ok())
    throw std::runtime_error("strategies: " + parsed.status().to_string());
  return std::move(*parsed);
}

/// Forwards rows to the CSV sink and remembers each.
class RecordingSink final : public engine::ResultSink {
 public:
  explicit RecordingSink(engine::ResultSink& inner) : inner_(inner) {}
  void begin() override { inner_.begin(); }
  void write(const engine::JobResult& result) override {
    rows.push_back(engine::csv_row(result));
    results.push_back(result);
    inner_.write(result);
  }
  void end() override { inner_.end(); }

  std::vector<std::string> rows;
  std::vector<engine::JobResult> results;

 private:
  engine::ResultSink& inner_;
};

struct CampaignRun {
  double wall_s = 0.0;
  std::vector<std::string> rows;
  std::vector<engine::JobResult> results;
  std::uint64_t profiles_built = 0;
  std::uint64_t profiles_shared = 0;
};

/// One cold campaign: fresh Explorer request, CSV committed atomically.
CampaignRun run_campaign(const CampaignConfig& config, const Inputs& inputs,
                         unsigned workers, const std::string& csv_path) {
  api::ExplorationRequest request;
  for (std::size_t i = 0; i < inputs.names.size(); ++i)
    request.traces.push_back(
        config.streaming
            ? api::TraceRef::streaming(inputs.names[i], inputs.paths[i])
            : api::TraceRef::memory(inputs.names[i], inputs.traces[i]));
  for (const std::uint32_t bytes : config.caches)
    request.geometries.emplace_back(bytes, 4u, 1u);
  request.strategies = parse_or_throw(config.strategies);
  request.hashed_bits = kHashedBits;
  request.num_threads = workers;

  const std::uint64_t start = now_ns();
  io::AtomicOstream os(csv_path);
  if (const api::Status s = os.open(); !s.ok())
    throw std::runtime_error(s.to_string());
  engine::CsvSink csv(os);
  RecordingSink sink(csv);
  request.sink = &sink;
  const api::Result<api::Report> report = api::Explorer::explore(request);
  if (!report.ok())
    throw std::runtime_error("campaign: " + report.status().to_string());
  if (const api::Status s = os.commit(); !s.ok())
    throw std::runtime_error(s.to_string());

  CampaignRun run;
  run.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  run.rows = std::move(sink.rows);
  run.results = std::move(sink.results);
  run.profiles_built = report->profiles_built;
  run.profiles_shared = report->profiles_shared;
  return run;
}

/// A TraceSource decorator recording one tracestore.decode span per batch
/// pulled: the time a consumer waits on the trace store.
class TimedSource final : public tracestore::TraceSource {
 public:
  TimedSource(std::unique_ptr<tracestore::TraceSource> inner, Tracer* tracer,
              std::uint64_t& decoded)
      : inner_(std::move(inner)), tracer_(tracer), decoded_(decoded) {}
  std::size_t next_batch(std::span<trace::Access> out) override {
    const std::uint64_t start = now_ns();
    const std::size_t n = inner_->next_batch(out);
    if (tracer_) tracer_->record("tracestore.decode", start, now_ns());
    decoded_ += n;
    return n;
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<tracestore::TraceSource> inner_;
  Tracer* tracer_;
  std::uint64_t& decoded_;
};

/// Counts gathered by the replay at the same call sites as its spans.
struct ReplayCounts {
  std::uint64_t profile_builds = 0;
  std::uint64_t profile_pairs = 0;
  std::uint64_t profile_references = 0;
  std::uint64_t profile_profiled = 0;
  std::uint64_t accesses_decoded = 0;
  std::uint64_t cache_passes = 0;
  std::uint64_t cache_accesses = 0;
  std::uint64_t search_evaluations = 0;
  std::uint64_t csv_bytes = 0;
  std::vector<double> estimator_error_pct;
};

struct Replay {
  std::vector<std::string> rows;
  ReplayCounts counts;
  double wall_s = 0.0;
};

/// Recompute every cell of the campaign through the layers' public entry
/// points, in spec order, mirroring what engine::Campaign runs per cell:
/// one conventional-index baseline and one profile per (trace, geometry).
Replay replay_campaign(const CampaignConfig& config, const Inputs& inputs,
                       const std::string& csv_path, Tracer* tracer) {
  const std::vector<api::Strategy> strategies =
      parse_or_throw(config.strategies);
  Replay out;
  ReplayCounts& n = out.counts;
  const std::uint64_t start = now_ns();
  const ScopedSpan root(tracer, "bench.replay");

  std::int64_t cell = 0;
  for (std::size_t t = 0; t < inputs.names.size(); ++t) {
    for (const std::uint32_t bytes : config.caches) {
      const cache::CacheGeometry geom(bytes, 4, 1);
      const hash::XorFunction conventional =
          hash::XorFunction::conventional(kHashedBits, geom.index_bits());
      std::optional<cache::CacheStats> baseline;
      std::unique_ptr<profile::ConflictProfile> prof;
      bool zeta_built = false;

      // Run `fn` on the trace the way the engine's in-memory or streaming
      // arm would: the Trace overload, or a fresh source per pass.
      const auto on_trace = [&](auto&& fn) {
        if (!config.streaming) return fn(*inputs.traces[t]);
        TimedSource source(tracestore::open_trace_source(inputs.paths[t]),
                           tracer, n.accesses_decoded);
        return fn(static_cast<tracestore::TraceSource&>(source));
      };
      const auto simulate = [&](const hash::IndexFunction& fn) {
        const ScopedSpan span(tracer, "cache.direct_mapped");
        const cache::CacheStats s = on_trace([&](auto& trace) {
          return cache::simulate_direct_mapped(trace, geom, fn);
        });
        ++n.cache_passes;
        n.cache_accesses += s.accesses;
        return s;
      };
      const auto get_baseline = [&] {
        if (!baseline) baseline = simulate(conventional);
        return *baseline;
      };
      const auto get_profile = [&](bool zeta) -> profile::ConflictProfile& {
        if (!prof) {
          const ScopedSpan span(tracer, "profile.build");
          prof = std::make_unique<profile::ConflictProfile>(
              on_trace([&](auto& trace) {
                return profile::build_conflict_profile(trace, geom,
                                                       kHashedBits);
              }));
          ++n.profile_builds;
          n.profile_pairs += prof->pair_count;
          n.profile_references += prof->references;
          n.profile_profiled += prof->profiled_refs;
        }
        if (zeta && !zeta_built) {
          const ScopedSpan span(tracer, "profile.zeta");
          (void)prof->subset_sums();
          zeta_built = true;
        }
        return *prof;
      };

      for (const api::Strategy& strategy : strategies) {
        const ScopedSpan cell_span(tracer, "engine.cell", cell++);
        const engine::FunctionConfig& fc = *strategy.config;
        engine::JobResult r;
        r.trace_name = inputs.names[t];
        r.geometry = geom;
        r.label = fc.label;
        r.kind = engine::kind_name(fc.payload);

        if (const auto* j = std::get_if<engine::EvaluateFunctionJob>(
                &fc.payload)) {
          const cache::CacheStats base = get_baseline();
          r.baseline_misses = base.misses;
          if (j->fully_associative) {
            const ScopedSpan span(tracer, "cache.fully_associative");
            const cache::CacheStats s = on_trace([&](auto& trace) {
              return cache::simulate_fully_associative(trace, geom);
            });
            ++n.cache_passes;
            n.cache_accesses += s.accesses;
            r.accesses = s.accesses;
            r.misses = s.misses;
            r.function_description = "fully-associative LRU";
          } else if (!j->function) {
            r.accesses = base.accesses;
            r.misses = base.misses;
          } else {
            const cache::CacheStats s = simulate(*j->function);
            r.accesses = s.accesses;
            r.misses = s.misses;
            r.function_description = j->function->describe();
          }
        } else if (const auto* j = std::get_if<engine::OptimizeIndexJob>(
                       &fc.payload)) {
          search::SearchOptions options;
          options.function_class = j->function_class;
          options.max_fan_in = j->max_fan_in;
          options.random_restarts = j->random_restarts;
          options.seed = j->seed;
          options.threads = j->threads;
          const int m = geom.index_bits();
          const bool bit_select =
              j->function_class == search::FunctionClass::bit_select;
          const profile::ConflictProfile& p = get_profile(bit_select);
          std::unique_ptr<hash::IndexFunction> winner;
          search::SearchStats stats;
          switch (j->function_class) {
            case search::FunctionClass::permutation: {
              const ScopedSpan span(tracer, "search.perm");
              auto s = search::search_permutation(p, m, options);
              winner = std::make_unique<hash::PermutationFunction>(
                  std::move(s.function));
              stats = s.stats;
              break;
            }
            case search::FunctionClass::general_xor: {
              const ScopedSpan span(tracer, "search.xor");
              auto s = search::search_general_xor(p, m, options);
              winner =
                  std::make_unique<hash::XorFunction>(std::move(s.function));
              stats = s.stats;
              break;
            }
            case search::FunctionClass::bit_select: {
              const ScopedSpan span(tracer, "search.bitselect");
              auto s = search::search_bit_select(p, m, options);
              winner = std::make_unique<hash::BitSelectFunction>(
                  std::move(s.function));
              stats = s.stats;
              break;
            }
          }
          n.search_evaluations += stats.evaluations;
          const cache::CacheStats base = get_baseline();
          const cache::CacheStats opt = simulate(*winner);
          r.accesses = base.accesses;
          r.baseline_misses = base.misses;
          r.misses = opt.misses;
          r.estimated_misses = stats.best_estimate;
          if (j->revert_if_worse && opt.misses > base.misses) {
            winner = conventional.clone();
            r.misses = base.misses;
            r.reverted = true;
          }
          r.function_description = winner->describe();
          if (opt.misses > 0)
            n.estimator_error_pct.push_back(
                100.0 *
                std::abs(static_cast<double>(stats.best_estimate) -
                         static_cast<double>(opt.misses)) /
                static_cast<double>(opt.misses));
        } else if (const auto* j = std::get_if<engine::OptimalBitSelectJob>(
                       &fc.payload)) {
          r.baseline_misses = get_baseline().misses;
          const search::ExhaustiveBitSelectResult best = [&] {
            if (j->use_estimator) {
              const profile::ConflictProfile& p = get_profile(true);
              const ScopedSpan span(tracer, "search.exhaustive_est");
              return on_trace([&](auto& trace) {
                return search::optimal_bit_select_estimated(trace, geom, p);
              });
            }
            const ScopedSpan span(tracer, "cache.exhaustive_exact");
            if (!config.streaming) {
              auto found = search::optimal_bit_select(*inputs.traces[t],
                                                      geom, kHashedBits);
              n.cache_passes += found.candidates;
              n.cache_accesses += found.candidates * inputs.sizes[t];
              return found;
            }
            // The engine's streaming arm: extract block addresses once.
            TimedSource source(tracestore::open_trace_source(inputs.paths[t]),
                               tracer, n.accesses_decoded);
            std::vector<std::uint64_t> blocks;
            blocks.reserve(static_cast<std::size_t>(source.size()));
            tracestore::for_each_access(source, [&](const trace::Access& a) {
              blocks.push_back(a.addr >> geom.offset_bits());
            });
            auto found = search::optimal_bit_select_blocks(blocks, geom,
                                                           kHashedBits);
            n.cache_passes += found.candidates;
            n.cache_accesses += found.candidates * blocks.size();
            return found;
          }();
          r.accesses = inputs.sizes[t];
          r.misses = best.misses;
          r.function_description = best.function.describe();
        } else {
          const ScopedSpan span(tracer, "cache.classify");
          const cache::MissBreakdown b = on_trace([&](auto& trace) {
            return cache::classify_misses(trace, geom, conventional);
          });
          ++n.cache_passes;
          n.cache_accesses += b.accesses;
          r.accesses = b.accesses;
          r.baseline_misses = b.misses;
          r.misses = b.misses;
          r.breakdown = b;
          r.function_description = "conventional";
        }
        const ScopedSpan span(tracer, "io.csv_row");
        out.rows.push_back(engine::csv_row(r));
      }
    }
  }

  {
    const ScopedSpan span(tracer, "io.csv_write");
    std::string csv = engine::csv_header() + "\n";
    for (const std::string& row : out.rows) csv += row + "\n";
    if (const api::Status s = io::write_file_atomic(csv_path, csv); !s.ok())
      throw std::runtime_error(s.to_string());
    n.csv_bytes = csv.size();
  }
  out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  return out;
}

/// Mean % of conventional-index misses removed over the search cells.
double mean_misses_removed(const std::vector<engine::JobResult>& rows) {
  double sum = 0.0;
  std::size_t count = 0;
  for (const engine::JobResult& r : rows) {
    if (r.kind != "optimize" && r.kind != "opt-bitselect") continue;
    sum += r.percent_removed();
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/// Counter deltas of the library's own obs registry over a region.
struct ObsDelta {
  obs::Snapshot before = obs::registry().snapshot();
  obs::Snapshot after;
  void stop() { after = obs::registry().snapshot(); }
  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    return after.counter(name) - before.counter(name);
  }
};

struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
    }
  }
};

double seconds_of(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

std::size_t count_row_mismatches(const std::vector<std::string>& expected,
                                 const std::vector<std::string>& actual) {
  const std::size_t common = std::min(expected.size(), actual.size());
  std::size_t bad = std::max(expected.size(), actual.size()) - common;
  for (std::size_t i = 0; i < common; ++i)
    if (expected[i] != actual[i]) ++bad;
  return bad;
}

RunResult run_campaign_workload(const RunOptions& options) {
  const CampaignConfig config = config_for(options);
  const std::string dir = options.out_dir + "/" + options.workload;
  std::filesystem::create_directories(dir + "/traces");
  const std::string csv_path = dir + "/campaign.csv";
  const std::string replay_path = dir + "/replay.csv";
  RunResult result;
  MetricSet& m = result.metrics;
  Gate gate;

  const auto gate_rows = [&](const std::vector<std::string>& expected,
                             const std::vector<std::string>& actual) {
    const std::size_t bad = count_row_mismatches(expected, actual);
    gate.attempted += actual.size();
    gate.failed += bad;
    if (bad != 0)
      std::cerr << "perfbench: " << bad << " campaign rows differ from the "
                << "replay\n";
  };

  if (!options.trace) {
    // Set up many times; the median is the set-up cost. One set-up is
    // 0.1-0.2 s, short enough for a busy host to move a median of few.
    std::vector<double> setups;
    Inputs inputs;
    for (int i = 0; i < kSetups; ++i) {
      inputs = {};  // release the previous copy before synthesizing again
      const std::uint64_t t0 = now_ns();
      inputs = set_up(config, dir, nullptr);
      setups.push_back(seconds_of(now_ns() - t0));
    }

    std::vector<CampaignRun> runs;
    const std::uint64_t window_start = now_ns();
    for (;;) {
      runs.push_back(run_campaign(config, inputs, config.workers, csv_path));
      const double elapsed = seconds_of(now_ns() - window_start);
      if (elapsed + runs.back().wall_s > options.seconds * 1.1) break;
    }

    const Replay replay = replay_campaign(config, inputs, replay_path, nullptr);
    std::vector<double> walls;
    for (const CampaignRun& run : runs) {
      gate_rows(replay.rows, run.rows);
      walls.push_back(run.wall_s);
    }
    std::cerr << "perfbench: " << options.workload << ": " << runs.size()
              << " campaigns, seconds:";
    for (const double w : walls) std::cerr << " " << w;
    std::cerr << "\nperfbench: " << options.workload << ": " << setups.size()
              << " set-ups, seconds:";
    for (const double w : setups) std::cerr << " " << w;
    std::cerr << "\n";

    m.add("setup_s", median(setups), "s");
    m.add("campaign_s", median(walls), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MiB");
    m.add("misses_removed_pct", mean_misses_removed(runs.front().results),
          "%");
  } else {
    Tracer setup_tracer;
    const Inputs inputs = set_up(config, dir, &setup_tracer);

    // Untraced reference runs: the campaign as configured (obs counters,
    // queue wait, profile sharing) and, when that is parallel, a serial
    // one for the traced-vs-untraced comparison.
    ObsDelta campaign_obs;
    const CampaignRun run =
        run_campaign(config, inputs, config.workers, csv_path);
    campaign_obs.stop();
    const double serial_wall_s =
        config.workers == 1
            ? run.wall_s
            : run_campaign(config, inputs, 1, csv_path).wall_s;

    Tracer tracer;
    ObsDelta replay_obs;
    const Replay replay = replay_campaign(config, inputs, replay_path, &tracer);
    replay_obs.stop();
    gate_rows(replay.rows, run.rows);

    const ReplayCounts& n = replay.counts;
    if (obs::compiled()) {
      gate.check(n.search_evaluations ==
                     campaign_obs.counter("search.evaluations"),
                 "replayed search.evaluations equals the obs counter");
      gate.check(n.profile_builds ==
                     campaign_obs.counter("profile_cache.misses"),
                 "profile.builds equals profile_cache.misses");
      gate.check(n.accesses_decoded ==
                     replay_obs.counter("tracestore.accesses_decoded"),
                 "tracestore.accesses_decoded equals the obs counter");
    }

    const std::vector<Span>& spans = tracer.spans();
    const SelfTimeTable table = tabulate(spans);
    const SelfTimeTable setup_table = tabulate(setup_tracer.spans());
    print_table(std::cerr, options.workload + " replay", table);
    {
      std::ofstream trace_out(dir + "/spans-seed" +
                              std::to_string(options.seed) + ".json");
      write_chrome_trace(trace_out, spans);
    }
    const auto self_s = [&](const char* name) { return table.name_s(name); };
    const auto layer_s = [&](const char* layer) {
      return table.layer_s(layer);
    };
    double build_max_s = 0.0;
    const std::vector<std::uint64_t> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (std::string_view(spans[i].name) == "profile.build")
        build_max_s = std::max(build_max_s, seconds_of(self[i]));
    const double total_s = seconds_of(table.total_ns);
    const auto per = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };

    m.add("workloads.synth_s", setup_table.name_s("workloads.synth"), "s");
    m.add("workloads.accesses", static_cast<double>(inputs.accesses), "count");
    m.add("tracestore.write_s", setup_table.name_s("tracestore.write"), "s");
    m.add("tracestore.decode_s", self_s("tracestore.decode"), "s");
    m.add("tracestore.accesses_decoded",
          static_cast<double>(n.accesses_decoded), "count");
    m.add("tracestore.decode_maccess_per_s",
          per(static_cast<double>(n.accesses_decoded) * 1e-6,
              self_s("tracestore.decode")),
          "Maccess/s");
    m.add("profile.builds", static_cast<double>(n.profile_builds), "count");
    m.add("profile.build_s", self_s("profile.build"), "s");
    m.add("profile.build_s.max", build_max_s, "s");
    m.add("profile.pairs", static_cast<double>(n.profile_pairs), "count");
    m.add("profile.ns_per_pair",
          per(self_s("profile.build") * 1e9,
              static_cast<double>(n.profile_pairs)),
          "ns");
    m.add("profile.profiled_ratio",
          per(static_cast<double>(n.profile_profiled),
              static_cast<double>(n.profile_references)),
          "ratio");
    m.add("profile.zeta_s", self_s("profile.zeta"), "s");
    m.add("cache.direct_mapped_s", self_s("cache.direct_mapped"), "s");
    m.add("cache.fully_associative_s", self_s("cache.fully_associative"), "s");
    m.add("cache.classify_s", self_s("cache.classify"), "s");
    m.add("cache.exhaustive_exact_s", self_s("cache.exhaustive_exact"), "s");
    m.add("cache.passes", static_cast<double>(n.cache_passes), "count");
    m.add("cache.accesses_simulated", static_cast<double>(n.cache_accesses),
          "count");
    m.add("cache.ns_per_access",
          per(layer_s("cache") * 1e9, static_cast<double>(n.cache_accesses)),
          "ns");
    m.add("search.perm_s", self_s("search.perm"), "s");
    m.add("search.xor_s", self_s("search.xor"), "s");
    m.add("search.bitselect_s", self_s("search.bitselect"), "s");
    m.add("search.exhaustive_est_s", self_s("search.exhaustive_est"), "s");
    m.add("search.evaluations", static_cast<double>(n.search_evaluations),
          "count");
    m.add("search.ns_per_eval",
          per((self_s("search.perm") + self_s("search.xor") +
               self_s("search.bitselect")) *
                  1e9,
              static_cast<double>(n.search_evaluations)),
          "ns");
    m.add("search.estimator_error_pct", median(n.estimator_error_pct), "%");
    m.add("engine.cells", static_cast<double>(replay.rows.size()), "count");
    double layers_s = 0.0;
    for (const char* layer : {"tracestore", "profile", "cache", "search", "io"})
      layers_s += layer_s(layer);
    m.add("engine.overhead_s", serial_wall_s - layers_s, "s");
    m.add("engine.profile_cache.hit_ratio",
          per(static_cast<double>(run.profiles_shared),
              static_cast<double>(run.profiles_built + run.profiles_shared)),
          "ratio");
    m.add("engine.queue_wait_p99_ms",
          histogram_p99_ms(campaign_obs.before, campaign_obs.after,
                           "engine.pool.queue_ns"),
          "ms");
    m.add("io.csv_write_s", layer_s("io"), "s");
    m.add("io.csv_bytes", static_cast<double>(n.csv_bytes), "bytes");
    for (const char* layer :
         {"tracestore", "profile", "cache", "search", "engine", "io"})
      m.add(std::string(layer) + ".self_pct",
            100.0 * per(layer_s(layer), total_s), "%");
    m.add("bench.trace_overhead_pct",
          100.0 * per(replay.wall_s - serial_wall_s, serial_wall_s), "%");

    // The serve layer has no end-to-end workload of its own (METRICS.md
    // says why); the traced sweep run drives the open-loop serve episode
    // so that its per-layer numbers are still measured.
    if (options.workload == "sweep") {
      const RunResult serve = run_serve_episode(options);
      for (const Metric& metric : serve.metrics.items())
        m.add(metric.name, metric.value, metric.unit);
      gate.attempted += serve.attempted;
      gate.failed += serve.failed;
    }
  }
  result.attempted = gate.attempted;
  result.failed = gate.failed;
  result.correct = gate.failed == 0;
  return result;
}

}  // namespace perfbench
