#include "engine/campaign.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <variant>

#include "cache/simulate.hpp"
#include "engine/thread_pool.hpp"
#include "hash/xor_function.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "search/exhaustive_bit_select.hpp"
#include "search/optimizer.hpp"

namespace xoridx::engine {

FunctionConfig FunctionConfig::baseline(std::string label) {
  return {std::move(label), EvaluateFunctionJob{}};
}

FunctionConfig FunctionConfig::evaluate(
    std::string label, std::shared_ptr<const hash::IndexFunction> function) {
  return {std::move(label), EvaluateFunctionJob{std::move(function), false}};
}

FunctionConfig FunctionConfig::fully_associative(std::string label) {
  return {std::move(label), EvaluateFunctionJob{nullptr, true}};
}

FunctionConfig FunctionConfig::optimize(std::string label,
                                        search::FunctionClass function_class,
                                        int max_fan_in, bool revert_if_worse,
                                        int random_restarts,
                                        std::uint64_t seed, int threads) {
  return {std::move(label),
          OptimizeIndexJob{function_class, max_fan_in, revert_if_worse,
                           random_restarts, seed, threads}};
}

FunctionConfig FunctionConfig::optimal_bit_select(std::string label,
                                                  bool use_estimator) {
  return {std::move(label), OptimalBitSelectJob{use_estimator}};
}

FunctionConfig FunctionConfig::classify(std::string label) {
  return {std::move(label), ClassifyMissesJob{}};
}

TraceEntry TraceEntry::in_memory(std::string name,
                                 std::shared_ptr<const trace::Trace> trace) {
  TraceEntry entry;
  entry.name = std::move(name);
  entry.id = tracestore::trace_id_of(*trace);
  entry.accesses = trace->size();
  entry.trace = std::move(trace);
  return entry;
}

Campaign::Campaign(SweepSpec spec,
                   std::shared_ptr<ProfileCache> shared_profiles)
    : spec_(std::move(spec)),
      owns_profiles_(shared_profiles == nullptr) {
  profile_cache_ = owns_profiles_ ? std::make_shared<ProfileCache>()
                                  : std::move(shared_profiles);
  for (const TraceEntry& entry : spec_.traces)
    if (!entry.trace == !entry.open || entry.id.empty())
      throw std::invalid_argument(
          "campaign trace '" + entry.name +
          "' needs a content id and exactly one of an in-memory trace and "
          "an open factory");
  for (const cache::CacheGeometry& geom : spec_.geometries)
    if (geom.index_bits() > spec_.hashed_bits)
      throw std::invalid_argument(
          "geometry " + geom.to_string() + " needs " +
          std::to_string(geom.index_bits()) +
          " index bits but the sweep hashes only " +
          std::to_string(spec_.hashed_bits) +
          " address bits (m <= n required)");
  const std::size_t geometries = spec_.geometries.size();
  profile_key_.resize(spec_.traces.size() * geometries);
  baselines_.resize(profile_key_.size());
  for (std::size_t t = 0; t < spec_.traces.size(); ++t) {
    std::size_t same_t = 0;
    while (spec_.traces[same_t].id != spec_.traces[t].id) ++same_t;
    for (std::size_t g = 0; g < geometries; ++g) {
      std::size_t same_g = 0;
      while (spec_.geometries[same_g] != spec_.geometries[g]) ++same_g;
      profile_key_[t * geometries + g] = same_t * geometries + same_g;
    }
  }
  jobs_.reserve(spec_.job_count());
  for (std::size_t t = 0; t < spec_.traces.size(); ++t)
    for (std::size_t g = 0; g < spec_.geometries.size(); ++g)
      for (std::size_t c = 0; c < spec_.configs.size(); ++c)
        jobs_.push_back({t, g, c, spec_.configs[c].label,
                         spec_.configs[c].payload});
}

template <typename F>
auto Campaign::with_input(const TraceEntry& entry, F&& f) {
  if (entry.trace) return f(tracestore::TraceInput(*entry.trace));
  const std::unique_ptr<tracestore::TraceSource> source = entry.open();
  if (!source)
    throw std::runtime_error("trace '" + entry.name +
                             "': source factory returned null");
  return f(tracestore::TraceInput(*source));
}

void Campaign::build_baseline(std::size_t slot) {
  if (baselines_[slot]) return;  // kept from an earlier run
  const std::size_t geometries = spec_.geometries.size();
  const TraceEntry& entry = spec_.traces[slot / geometries];
  const cache::CacheGeometry& geom = spec_.geometries[slot % geometries];
  try {
    const hash::XorFunction conventional = hash::XorFunction::conventional(
        spec_.hashed_bits, geom.index_bits());
    baselines_[slot] = with_input(entry, [&](tracestore::TraceInput t) {
      return cache::simulate_direct_mapped(t, geom, conventional);
    });
  } catch (...) {
    baseline_errors_[slot] = std::current_exception();  // not cached
  }
}

cache::CacheStats Campaign::baseline(const Job& job) const {
  const std::size_t slot =
      job.trace_index * spec_.geometries.size() + job.geometry_index;
  if (baseline_errors_[slot]) std::rethrow_exception(baseline_errors_[slot]);
  return baselines_[slot].value();
}

void Campaign::count_profile_readers() {
  profile_readers_ =
      std::vector<std::atomic<std::size_t>>(profile_key_.size());
  for (const Job& job : jobs_) {
    const auto* bit_select = std::get_if<OptimalBitSelectJob>(&job.payload);
    if (std::holds_alternative<OptimizeIndexJob>(job.payload) ||
        (bit_select != nullptr && bit_select->use_estimator))
      ++profile_readers_[profile_key(job)];
  }
}

void Campaign::profile_read(const Job& job) {
  if (!owns_profiles_) return;
  if (profile_readers_[profile_key(job)].fetch_sub(1) != 1) return;
  profile_cache_->release(spec_.traces[job.trace_index].id,
                          spec_.geometries[job.geometry_index],
                          spec_.hashed_bits);
}

std::exception_ptr Campaign::wrap_current_exception(const Job& job) const {
  const TraceEntry& entry = spec_.traces[job.trace_index];
  const cache::CacheGeometry& geom = spec_.geometries[job.geometry_index];
  try {
    throw;
  } catch (const CampaignError&) {
    return std::current_exception();
  } catch (const std::invalid_argument& e) {
    return std::make_exception_ptr(
        CampaignError(entry.name, geom, job.label, e.what(),
                      CampaignError::Cause::invalid_argument));
  } catch (const std::exception& e) {
    return std::make_exception_ptr(
        CampaignError(entry.name, geom, job.label, e.what()));
  } catch (...) {
    return std::make_exception_ptr(
        CampaignError(entry.name, geom, job.label, "unknown error",
                      CampaignError::Cause::unknown));
  }
}

JobResult Campaign::execute(const Job& job) {
  const TraceEntry& entry = spec_.traces[job.trace_index];
  const cache::CacheGeometry& geom = spec_.geometries[job.geometry_index];

  XORIDX_SPAN_NAMED(span, "engine", "job");
  XORIDX_SPAN_DETAIL(span, entry.name + " " + geom.to_string() + " " +
                               job.label);

  JobResult result;
  result.trace_name = entry.name;
  result.geometry = geom;
  result.label = job.label;
  result.kind = kind_name(job.payload);

  // Every pass over the trace goes through with_input: a streaming entry
  // pulls a fresh TraceSource per pass, an in-memory one is read in place.
  struct Visitor {
    Campaign& self;
    const Job& job;
    const TraceEntry& entry;
    const cache::CacheGeometry& geom;
    JobResult& out;

    [[nodiscard]] ProfileCache::ProfilePtr profile() const {
      // Counted as read on the way out, whether the build succeeded or
      // threw; a reader still holding the profile keeps it alive.
      struct Read {
        Campaign& self;
        const Job& job;
        ~Read() { self.profile_read(job); }
      } read{self, job};
      return with_input(entry, [&](tracestore::TraceInput t) {
        return self.profile_cache_->get_or_build(entry.id, t, geom,
                                                 self.spec_.hashed_bits);
      });
    }

    void operator()(const EvaluateFunctionJob& j) const {
      const cache::CacheStats baseline = self.baseline(job);
      out.baseline_misses = baseline.misses;
      if (j.fully_associative) {
        const cache::CacheStats stats =
            with_input(entry, [&](tracestore::TraceInput t) {
              return cache::simulate_fully_associative(t, geom);
            });
        out.accesses = stats.accesses;
        out.misses = stats.misses;
        out.function_description = "fully-associative LRU";
        return;
      }
      if (!j.function) {  // conventional index: the cached baseline run
        out.accesses = baseline.accesses;
        out.misses = baseline.misses;
        return;
      }
      const cache::CacheStats stats =
          with_input(entry, [&](tracestore::TraceInput t) {
            return cache::simulate_direct_mapped(t, geom, *j.function);
          });
      out.accesses = stats.accesses;
      out.misses = stats.misses;
      out.function_description = j.function->describe();
    }

    void operator()(const OptimizeIndexJob& j) const {
      const ProfileCache::ProfilePtr prof = profile();
      const search::OptimizeOptions options =
          j.options(self.spec_.hashed_bits);
      // The conventional-index run is memoized per (trace, geometry);
      // passing it in saves every optimize job a full-trace simulation
      // (a whole decode pass for streaming entries).
      const cache::CacheStats baseline = self.baseline(job);
      const search::OptimizationResult r =
          with_input(entry, [&](tracestore::TraceInput t) {
            return search::optimize_index_with_profile(t, geom, *prof,
                                                       options, &baseline);
          });
      out.accesses = r.accesses;
      out.baseline_misses = r.baseline_misses;
      out.misses = r.optimized_misses;
      out.estimated_misses = r.estimated_misses;
      out.reverted = r.reverted;
      out.function_description = r.function->describe();
    }

    void operator()(const OptimalBitSelectJob& j) const {
      out.baseline_misses = self.baseline(job).misses;
      const ProfileCache::ProfilePtr prof =
          j.use_estimator ? profile() : nullptr;
      const search::ExhaustiveBitSelectResult r =
          with_input(entry, [&](tracestore::TraceInput t) {
            return prof ? search::optimal_bit_select_estimated(t, geom, *prof)
                        : search::optimal_bit_select(t, geom,
                                                     self.spec_.hashed_bits);
          });
      out.accesses = entry.accesses;
      out.misses = r.misses;
      out.function_description = r.function.describe();
    }

    void operator()(const ClassifyMissesJob&) const {
      const hash::XorFunction conventional = hash::XorFunction::conventional(
          self.spec_.hashed_bits, geom.index_bits());
      const cache::MissBreakdown b =
          with_input(entry, [&](tracestore::TraceInput t) {
            return cache::classify_misses(t, geom, conventional);
          });
      out.accesses = b.accesses;
      out.baseline_misses = b.misses;
      out.misses = b.misses;
      out.breakdown = b;
      out.function_description = "conventional";
    }
  };
  std::visit(Visitor{*this, job, entry, geom, result}, job.payload);
  XORIDX_OBS_COUNT("engine.jobs_completed", 1);
  return result;
}

std::exception_ptr Campaign::execute_cells(const CampaignOptions& options,
                                           bool fail_fast,
                                           const CellCallback& on_cell,
                                           std::vector<CellOutcome>& outcomes) {
  outcomes.assign(jobs_.size(), CellOutcome{});
  if (owns_profiles_) count_profile_readers();
  baseline_errors_.assign(baselines_.size(), nullptr);

  // Ordered-prefix emission state: cells settle in completion order but
  // stream to the sink/callback in spec order, so a run with N threads
  // (or on a shared pool) emits bytes identical to a serial run.
  std::mutex emit_mutex;
  std::vector<char> settled(jobs_.size(), 0);
  std::size_t emitted = 0;
  std::exception_ptr first_error;
  std::atomic<bool> error_seen{false};

  const auto emit_prefix_locked = [&] {
    while (emitted < jobs_.size() && settled[emitted]) {
      const std::size_t i = emitted++;
      const CellOutcome& out = outcomes[i];
      // Emission runs inside pool tasks, which must not throw: a throwing
      // callback or sink is recorded like a job failure, and the sink
      // stops.
      try {
        if (on_cell) on_cell(i, out);
        if (options.sink && out.state == CellState::done && !first_error)
          options.sink->write(out.result);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
        error_seen.store(true, std::memory_order_relaxed);
      }
    }
  };

  const auto settle = [&](std::size_t i, CellOutcome out) {
    std::lock_guard lock(emit_mutex);
    if (out.state == CellState::failed && !first_error) {
      first_error = out.error;
      error_seen.store(true, std::memory_order_relaxed);
    }
    outcomes[i] = std::move(out);
    settled[i] = 1;
    emit_prefix_locked();
  };

  // A cell that will not run: the token fired, or a fail-fast run
  // already failed (run() then discards outcomes, so the skipped cell's
  // defaulted outcome is never read).
  const auto stopped = [&] {
    return options.cancel.cancelled() ||
           (fail_fast && error_seen.load(std::memory_order_relaxed));
  };

  const auto run_cell = [&](std::size_t i) {
    CellOutcome out;
    if (options.cancel.cancelled()) {
      out.state = CellState::cancelled;
      XORIDX_OBS_COUNT("engine.cells_cancelled", 1);
    } else if (!stopped()) {
      try {
        out.result = execute(jobs_[i]);
      } catch (...) {
        out.state = CellState::failed;
        out.error = wrap_current_exception(jobs_[i]);
      }
    }
    settle(i, std::move(out));
  };

  bool needs_baseline = false;
  for (const FunctionConfig& config : spec_.configs)
    if (!std::holds_alternative<ClassifyMissesJob>(config.payload))
      needs_baseline = true;

  std::unique_ptr<ThreadPool> own_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    const unsigned threads = options.num_threads == 0
                                 ? ThreadPool::default_threads()
                                 : options.num_threads;
    if (threads > 1 && jobs_.size() > 1)
      own_pool = std::make_unique<ThreadPool>(threads);
    pool = own_pool.get();
  }

  // One task per (trace, geometry) group, in spec order: it simulates
  // the conventional-index baseline its cells read, once, then runs the
  // cells. Declared last, so its destructor waits for every task before
  // the state they reference goes away.
  const std::size_t configs = spec_.configs.size();
  TaskGroup group(pool);
  for (std::size_t slot = 0; slot < baselines_.size(); ++slot)
    group.run([&, slot] {
      if (needs_baseline && !stopped()) build_baseline(slot);
      for (std::size_t c = 0; c < configs; ++c)
        group.run([&, i = slot * configs + c] { run_cell(i); });
    });
  group.wait();
  return first_error;
}

std::vector<JobResult> Campaign::run(const CampaignOptions& options) {
  if (options.sink) options.sink->begin();

  // Terminate the sink on a failure path without letting a throwing
  // end() mask the error being surfaced.
  const auto end_sink_noexcept = [&options]() noexcept {
    if (!options.sink) return;
    try {
      options.sink->end();
    } catch (...) {
    }
  };

  std::vector<CellOutcome> outcomes;
  std::exception_ptr first_error;
  try {
    first_error = execute_cells(options, /*fail_fast=*/true, {}, outcomes);
  } catch (...) {
    end_sink_noexcept();
    throw;
  }
  if (first_error) {
    end_sink_noexcept();  // the recorded job failure wins
    std::rethrow_exception(first_error);
  }
  if (options.cancel.cancelled()) {
    end_sink_noexcept();  // partial but well-formed streamed output
    throw CampaignCancelled();
  }
  if (options.sink) options.sink->end();

  std::vector<JobResult> results;
  results.reserve(outcomes.size());
  for (CellOutcome& out : outcomes) results.push_back(std::move(out.result));
  return results;
}

std::vector<CellOutcome> Campaign::run_cells(const CampaignOptions& options,
                                             const CellCallback& on_cell) {
  if (options.sink) options.sink->begin();
  std::vector<CellOutcome> outcomes;
  (void)execute_cells(options, /*fail_fast=*/false, on_cell, outcomes);
  if (options.sink) options.sink->end();
  return outcomes;
}

}  // namespace xoridx::engine
