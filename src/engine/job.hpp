// Typed job model for the evaluation engine.
//
// A campaign expands a declarative sweep spec into a flat vector of jobs,
// each the cross product of one trace, one cache geometry and one job
// payload. Payloads cover the operations the paper's tables are built
// from: exact simulation of a fixed function (or the FA bound), the
// profile-guided search of Section 3, the exhaustive bit-select baseline
// of Table 3's "opt" column, and the 3C breakdown.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>

#include "cache/geometry.hpp"
#include "cache/simulate.hpp"
#include "hash/index_function.hpp"
#include "search/search_types.hpp"

namespace xoridx::engine {

/// Simulate one fixed index function exactly. A null `function` means the
/// conventional modulo index; `fully_associative` ignores the function and
/// runs the equal-capacity LRU bound (Table 3's "FA" column) instead.
struct EvaluateFunctionJob {
  std::shared_ptr<const hash::IndexFunction> function;
  bool fully_associative = false;
};

/// Profile the trace (shared via the campaign's ProfileCache) and search
/// one function class / fan-in limit for the smallest Eq.-4 estimate.
/// Restarts are seeded, so a job's outcome is a pure function of (trace,
/// geometry, this struct) — the property campaign sharding relies on.
struct OptimizeIndexJob {
  search::FunctionClass function_class = search::FunctionClass::permutation;
  int max_fan_in = search::SearchOptions::unlimited;
  bool revert_if_worse = false;
  int random_restarts = 0;
  std::uint64_t seed = search::SearchOptions{}.seed;
  /// The spec's threads=K, carried into SearchOptions::threads. No
  /// search reads it (every scan is serial); results are identical for
  /// every value.
  int threads = 1;
};

/// Exhaustive bit-selecting search (Patel et al. baseline). With
/// `use_estimator` the winner minimizes the Eq.-4 estimate instead of
/// exact misses (the "--fast" path of the Table 3 bench).
struct OptimalBitSelectJob {
  bool use_estimator = false;
};

/// 3C miss breakdown under the conventional index.
struct ClassifyMissesJob {};

using JobPayload = std::variant<EvaluateFunctionJob, OptimizeIndexJob,
                                OptimalBitSelectJob, ClassifyMissesJob>;

/// Stable short name of a payload alternative ("evaluate", "optimize",
/// "opt-bitselect", "classify") — used in reports.
[[nodiscard]] const char* kind_name(const JobPayload& payload);

/// One unit of work: indices refer into the owning SweepSpec.
struct Job {
  std::size_t trace_index = 0;
  std::size_t geometry_index = 0;
  std::size_t config_index = 0;
  std::string label;  ///< the config's label, stable across runs
  JobPayload payload;
};

/// One row of the aggregated result table. Deliberately free of timing or
/// thread information so that a parallel run aggregates byte-identically
/// to a serial run.
struct JobResult {
  std::string trace_name;
  cache::CacheGeometry geometry;
  std::string label;
  std::string kind;

  std::uint64_t accesses = 0;
  std::uint64_t baseline_misses = 0;  ///< conventional index, exact
  std::uint64_t misses = 0;           ///< this job's function, exact
  std::uint64_t estimated_misses = 0;  ///< Eq.-4 value (optimize jobs)
  bool reverted = false;               ///< optimize fell back to baseline
  cache::MissBreakdown breakdown;      ///< classify jobs only
  std::string function_description;    ///< winning function, if searched

  /// Percentage of baseline misses removed (negative = regression).
  [[nodiscard]] double percent_removed() const {
    if (baseline_misses == 0) return 0.0;
    return 100.0 *
           (static_cast<double>(baseline_misses) -
            static_cast<double>(misses)) /
           static_cast<double>(baseline_misses);
  }

  friend bool operator==(const JobResult&, const JobResult&) = default;
};

inline const char* kind_name(const JobPayload& payload) {
  struct Visitor {
    const char* operator()(const EvaluateFunctionJob& j) const {
      return j.fully_associative ? "evaluate-fa" : "evaluate";
    }
    const char* operator()(const OptimizeIndexJob&) const {
      return "optimize";
    }
    const char* operator()(const OptimalBitSelectJob&) const {
      return "opt-bitselect";
    }
    const char* operator()(const ClassifyMissesJob&) const {
      return "classify";
    }
  };
  return std::visit(Visitor{}, payload);
}

}  // namespace xoridx::engine
