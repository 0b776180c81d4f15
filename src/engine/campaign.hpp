// Campaign: declarative trace × geometry × function-class sweeps executed
// on a thread pool with deterministic aggregation.
//
// This is the engine behind the Table-2/Table-3 benches and the design-
// space CLI. A SweepSpec names resolved traces (SweepSpec::add_trace, or
// api::TraceRef::lower() for files and custom sources: the campaign loads
// and resolves nothing itself), cache geometries and per-cell job
// configs; the campaign expands the cross product into typed jobs
// (job.hpp), deduplicates ConflictProfile construction per (trace,
// geometry) behind a ProfileCache, runs the jobs concurrently, and
// aggregates results in insertion (spec) order — so a run with N threads
// produces output byte-identical to a serial run. Results stream to an
// optional ResultSink as the ordered prefix completes.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/geometry.hpp"
#include "engine/cancellation.hpp"
#include "engine/job.hpp"
#include "engine/profile_cache.hpp"
#include "engine/report.hpp"
#include "engine/thread_pool.hpp"
#include "trace/trace.hpp"
#include "tracestore/trace_id.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::engine {

/// One resolved trace of a sweep: its content id and length, plus its
/// data as exactly one of an in-memory Trace and an `open` factory (a
/// trace file, a remote chunk fetch, a synthetic generator, ...).
/// api::TraceRef::lower() is the one place that turns a trace kind into
/// an entry. A streaming entry never materializes the trace: every job
/// pulls its own source, keeping resident decoded memory O(chunk) per
/// running job.
struct TraceEntry {
  std::string name;
  tracestore::TraceId id;  ///< stable content id; must not be empty
  std::uint64_t accesses = 0;
  std::shared_ptr<const trace::Trace> trace;  ///< null for streaming entries
  /// Streaming entries only: each call returns an independent source.
  /// Must be callable concurrently.
  std::function<std::unique_ptr<tracestore::TraceSource>()> open;

  /// An in-memory entry; the content id is hashed here.
  [[nodiscard]] static TraceEntry in_memory(
      std::string name, std::shared_ptr<const trace::Trace> trace);
};

/// One column of a sweep: a label plus the job payload run for every
/// (trace, geometry) cell.
struct FunctionConfig {
  std::string label;
  JobPayload payload;

  /// Exact simulation of the conventional modulo index.
  [[nodiscard]] static FunctionConfig baseline(std::string label = "base");
  /// Exact simulation of a fixed function.
  [[nodiscard]] static FunctionConfig evaluate(
      std::string label, std::shared_ptr<const hash::IndexFunction> function);
  /// Equal-capacity fully-associative LRU bound.
  [[nodiscard]] static FunctionConfig fully_associative(
      std::string label = "fa");
  /// Profile-guided search of one function class / fan-in limit.
  /// `random_restarts` > 0 adds seeded restarts beyond the conventional
  /// starting point (deterministic for a fixed seed); `threads` is the
  /// spec's threads=K, which no search reads (see
  /// OptimizeIndexJob::threads).
  [[nodiscard]] static FunctionConfig optimize(
      std::string label, search::FunctionClass function_class,
      int max_fan_in = search::SearchOptions::unlimited,
      bool revert_if_worse = false, int random_restarts = 0,
      std::uint64_t seed = search::SearchOptions{}.seed, int threads = 1);
  /// Exhaustive bit-selecting search (exact, or estimator-guided).
  [[nodiscard]] static FunctionConfig optimal_bit_select(
      std::string label = "opt", bool use_estimator = false);
  /// 3C breakdown under the conventional index.
  [[nodiscard]] static FunctionConfig classify(std::string label = "3c");
};

struct SweepSpec {
  std::vector<TraceEntry> traces;
  std::vector<cache::CacheGeometry> geometries;
  std::vector<FunctionConfig> configs;
  int hashed_bits = 16;  ///< the paper's n

  /// Convenience: take ownership of a trace under a name.
  void add_trace(std::string name, trace::Trace t) {
    traces.push_back(TraceEntry::in_memory(
        std::move(name), std::make_shared<const trace::Trace>(std::move(t))));
  }

  [[nodiscard]] std::size_t job_count() const {
    return traces.size() * geometries.size() * configs.size();
  }
};

/// A job failure with the sweep cell attached: which (trace, geometry,
/// strategy label) was executing when the underlying layer threw. The
/// campaign wraps every worker exception in one of these before
/// surfacing it, so callers (and the api::Explorer facade) can report
/// the failing cell instead of a bare message.
class CampaignError : public std::runtime_error {
 public:
  /// Coarse class of the wrapped exception, preserved so upper layers
  /// (the api facade) can classify the failure without re-parsing the
  /// message.
  enum class Cause { runtime, invalid_argument, unknown };

  CampaignError(std::string trace_name, const cache::CacheGeometry& geometry,
                std::string label, const std::string& message,
                Cause cause = Cause::runtime)
      : std::runtime_error("job [" + trace_name + " x " +
                           geometry.to_string() + " x " + label +
                           "]: " + message),
        trace_name_(std::move(trace_name)),
        geometry_(geometry),
        label_(std::move(label)),
        cause_(cause) {}

  [[nodiscard]] const std::string& trace_name() const noexcept {
    return trace_name_;
  }
  [[nodiscard]] const cache::CacheGeometry& geometry() const noexcept {
    return geometry_;
  }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] Cause cause() const noexcept { return cause_; }

 private:
  std::string trace_name_;
  cache::CacheGeometry geometry_;
  std::string label_;
  Cause cause_ = Cause::runtime;
};

struct CampaignOptions {
  /// 0 = one worker per hardware thread; 1 = run inline on the calling
  /// thread (the serial reference path, no pool overhead).
  unsigned num_threads = 0;
  /// Results stream here in spec order as the ordered prefix completes.
  ResultSink* sink = nullptr;
  /// Checked at cell boundaries: a running cell always finishes, cells
  /// not yet started settle as cancelled. Default token never fires.
  CancellationToken cancel;
  /// Run on this externally-owned pool instead of creating one
  /// (num_threads is then ignored). Many campaigns may share one pool —
  /// each waits on its own TaskGroup — which is how the serving daemon
  /// runs concurrent requests on one engine. Call run() from outside the
  /// pool, never from one of its workers.
  ThreadPool* pool = nullptr;
};

/// Thrown by Campaign::run when the options' cancellation token fired
/// before the sweep completed. run_cells never throws it — cancelled
/// cells are reported per cell instead.
class CampaignCancelled : public std::runtime_error {
 public:
  CampaignCancelled() : std::runtime_error("campaign cancelled") {}
};

/// Settled state of one cell of a run_cells sweep.
enum class CellState {
  done,       ///< result is valid
  failed,     ///< error holds a CampaignError naming the cell
  cancelled,  ///< the cancellation token fired before the cell started
};

struct CellOutcome {
  CellState state = CellState::done;
  JobResult result;          ///< valid when state == done
  std::exception_ptr error;  ///< set when state == failed
};

class Campaign {
 public:
  /// `shared_profiles` (optional) substitutes an externally-owned
  /// ProfileCache for the campaign's private one, so many campaigns —
  /// e.g. concurrent daemon requests tuning against the same hot traces
  /// — pay for one profile/zeta build per (trace content, geometry, n).
  /// Throws std::invalid_argument for an entry without a content id or
  /// without exactly one of `trace` and `open`, and for a geometry that
  /// needs more index bits than the sweep hashes.
  explicit Campaign(SweepSpec spec,
                    std::shared_ptr<ProfileCache> shared_profiles = nullptr);

  [[nodiscard]] const SweepSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::vector<Job>& jobs() const noexcept {
    return jobs_;
  }

  /// Flat index of the (trace, geometry, config) cell in jobs()/results:
  /// trace-major, then geometry, then config — the expansion order.
  [[nodiscard]] std::size_t job_index(std::size_t trace_index,
                                      std::size_t geometry_index,
                                      std::size_t config_index) const {
    return (trace_index * spec_.geometries.size() + geometry_index) *
               spec_.configs.size() +
           config_index;
  }

  /// Execute every job and return results in jobs() order. May be called
  /// repeatedly. A private profile cache releases each profile once the
  /// last job of the run that reads it has done so, so a completed run
  /// leaves it empty and the next run builds again; a shared cache is
  /// never released from. The first
  /// failing cell aborts the sweep (remaining cells are skipped) and is
  /// rethrown as a CampaignError; cancellation mid-sweep throws
  /// CampaignCancelled. Both paths terminate the sink so streamed
  /// output stays well-formed. A run with N threads (or on a shared
  /// pool) produces output byte-identical to a serial run.
  std::vector<JobResult> run(const CampaignOptions& options = {});

  /// Settled in spec order as the ordered prefix of the sweep
  /// completes: cells stream to the callback exactly once each.
  using CellCallback =
      std::function<void(std::size_t index, const CellOutcome& outcome)>;

  /// Execute every job, capturing per-cell outcomes instead of aborting
  /// on failure: a failing cell is recorded (CampaignError attached), a
  /// fired cancellation token marks every not-yet-started cell
  /// cancelled, and completed cells keep their exact results either
  /// way. The outcome vector is in jobs() order; `on_cell` (optional)
  /// observes the same outcomes in spec order. Uncancelled,
  /// failure-free sweeps produce rows byte-identical to run().
  std::vector<CellOutcome> run_cells(const CampaignOptions& options = {},
                                     const CellCallback& on_cell = {});

  [[nodiscard]] const ProfileCache& profiles() const noexcept {
    return *profile_cache_;
  }
  [[nodiscard]] ProfileCache& profiles() noexcept { return *profile_cache_; }

 private:
  [[nodiscard]] JobResult execute(const Job& job);
  /// Index into profile_readers_ of the job's profile key.
  [[nodiscard]] std::size_t profile_key(const Job& job) const {
    return profile_key_[job.trace_index * spec_.geometries.size() +
                        job.geometry_index];
  }
  /// Count the jobs of a run that will read each profile.
  void count_profile_readers();
  /// A job has read its profile: release it if that was the last reader
  /// and the cache is the campaign's own.
  void profile_read(const Job& job);
  /// Simulate the conventional index for one (trace, geometry) slot,
  /// unless an earlier run already did; a failure is recorded in
  /// baseline_errors_ instead of thrown.
  void build_baseline(std::size_t slot);
  /// The job's baseline; rethrows its slot's build error.
  [[nodiscard]] cache::CacheStats baseline(const Job& job) const;
  /// Call `f(tracestore::TraceInput)` on the entry's trace and return its
  /// result: a streaming entry opens a fresh source for the call, so
  /// decoded memory stays O(chunk) per running job; otherwise `f` reads
  /// the in-memory trace in place.
  template <typename F>
  static auto with_input(const TraceEntry& entry, F&& f);
  /// The in-flight exception wrapped in a CampaignError naming the
  /// job's cell (CampaignErrors pass through untouched).
  [[nodiscard]] std::exception_ptr wrap_current_exception(
      const Job& job) const;
  /// Run every cell, behind both run() and run_cells(). With
  /// `fail_fast`, cells after the first failure are skipped (their
  /// outcome is left defaulted; the caller throws the recorded error
  /// anyway). Returns the first recorded job/sink error, if any.
  std::exception_ptr execute_cells(const CampaignOptions& options,
                                   bool fail_fast,
                                   const CellCallback& on_cell,
                                   std::vector<CellOutcome>& outcomes);

  SweepSpec spec_;
  std::vector<Job> jobs_;
  std::shared_ptr<ProfileCache> profile_cache_;
  bool owns_profiles_;  ///< profile_cache_ is private, not shared

  /// Per (trace, geometry) cell, its profile key: the first cell with the
  /// same trace content and geometry, which reads the same cache entry.
  std::vector<std::size_t> profile_key_;
  /// Per profile key, the jobs of the current run yet to read it.
  std::vector<std::atomic<std::size_t>> profile_readers_;

  /// Conventional-index simulation results, one slot per (trace,
  /// geometry), built by the slot's group task before its cells run and
  /// kept across runs: every result row reports its baseline, the
  /// baseline config reuses the run, and optimize jobs pass it into the
  /// search to skip their internal re-simulation.
  std::vector<std::optional<cache::CacheStats>> baselines_;
  /// Per slot, the current run's build failure, rethrown by every cell
  /// that reads the slot.
  std::vector<std::exception_ptr> baseline_errors_;
};

}  // namespace xoridx::engine
