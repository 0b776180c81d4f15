// Shared helpers for the table-regenerating bench binaries.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cache/geometry.hpp"
#include "cache/simulate.hpp"
#include "engine/report.hpp"
#include "hash/xor_function.hpp"
#include "profile/conflict_profile.hpp"
#include "search/optimizer.hpp"
#include "serve/json.hpp"
#include "trace/trace.hpp"
#include "workloads/workload.hpp"

namespace xoridx::bench {

/// Parse a --threads value. Zero, negative or unparsable input yields 0
/// (= one worker per hardware thread) instead of wrapping to a huge
/// unsigned count.
inline unsigned parse_threads(const char* arg) {
  const int v = std::atoi(arg);
  return v > 0 ? static_cast<unsigned>(v) : 0u;
}

/// Streams one stderr line per completed sweep cell, in spec order — the
/// incremental progress reporting of the serial bench loops, engine-style.
class ProgressSink final : public engine::ResultSink {
 public:
  ProgressSink(const char* tag, std::size_t total)
      : tag_(tag), total_(total) {}
  void write(const engine::JobResult& r) override {
    ++done_;
    std::fprintf(stderr, "  [%s] %zu/%zu %s %s @ %s done\n", tag_, done_,
                 total_, r.trace_name.c_str(), r.label.c_str(),
                 r.geometry.to_string().c_str());
  }

 private:
  const char* tag_;
  std::size_t total_;
  std::size_t done_ = 0;
};

/// The paper's cache configurations: direct mapped, 4-byte blocks.
inline const std::vector<cache::CacheGeometry>& paper_geometries() {
  static const std::vector<cache::CacheGeometry> geoms = {
      cache::CacheGeometry(1024, 4), cache::CacheGeometry(4096, 4),
      cache::CacheGeometry(16384, 4)};
  return geoms;
}

inline constexpr int paper_hashed_bits = 16;  // the paper's n

/// Baseline (conventional modulo index) misses of a trace.
inline std::uint64_t baseline_misses(const trace::Trace& t,
                                     const cache::CacheGeometry& geom) {
  const hash::XorFunction conv =
      hash::XorFunction::conventional(paper_hashed_bits, geom.index_bits());
  return cache::simulate_direct_mapped(t, geom, conv).misses;
}

/// Misses per thousand uops, the paper's "base" metric.
inline double misses_per_kuop(std::uint64_t misses, std::uint64_t uops) {
  return uops == 0 ? 0.0
                   : 1000.0 * static_cast<double>(misses) /
                         static_cast<double>(uops);
}

/// Percentage of misses removed relative to a baseline (negative =
/// regression), as printed in Tables 2 and 3.
inline double percent_removed(std::uint64_t base, std::uint64_t opt) {
  if (base == 0) return 0.0;
  return 100.0 * (static_cast<double>(base) - static_cast<double>(opt)) /
         static_cast<double>(base);
}

/// Run one search class / fan-in on a prebuilt profile and return the
/// exact simulated misses of the winner.
inline std::uint64_t optimized_misses(
    const trace::Trace& t, const cache::CacheGeometry& geom,
    const profile::ConflictProfile& profile,
    search::FunctionClass function_class,
    int max_fan_in = search::SearchOptions::unlimited) {
  search::OptimizeOptions opts;
  opts.hashed_bits = paper_hashed_bits;
  opts.search.function_class = function_class;
  opts.search.max_fan_in = max_fan_in;
  const search::OptimizationResult r =
      search::optimize_index_with_profile(t, geom, profile, opts);
  return r.optimized_misses;
}

/// printf helper for one numeric cell.
inline std::string cell(double v, int width = 6, int precision = 1) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%*.*f", width, precision, v);
  return buf;
}

// ------------------------------------------------------------ --json mode
//
// Every perf bench shares one machine-readable report shape so CI and
// future perf PRs diff against a tracked baseline:
//
//   {"benchmark": "<binary>",
//    "rows": [
//      {"name": "<measurement>", "<param>": ..., "wall_ms": ...,
//       "evals_per_s": ..., ...},
//      ...]}
//
// Convention: with --json the report goes to stdout and the human-
// readable table moves to stderr, so `bench --json > out.json` captures a
// clean document.

/// steady_clock stopwatch; wall milliseconds since construction or the
/// last reset.
class StopWatch {
 public:
  StopWatch() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Evaluations (or cells, accesses, ...) per second from a count and a
/// wall time in ms.
inline double per_second(std::uint64_t count, double wall_ms) {
  return wall_ms <= 0.0 ? 0.0
                        : 1000.0 * static_cast<double>(count) / wall_ms;
}

/// Ordered JSON report: one object per benchmark binary, one row per
/// measurement. Values keep insertion order; numbers are emitted
/// unquoted, everything else escaped as a JSON string.
class JsonReport {
 public:
  explicit JsonReport(std::string benchmark)
      : benchmark_(std::move(benchmark)) {}

  class Row {
   public:
    Row& num(const std::string& key, double v) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      fields_.emplace_back(key, buf);
      return *this;
    }
    Row& num(const std::string& key, std::uint64_t v) {
      fields_.emplace_back(key, std::to_string(v));
      return *this;
    }
    Row& num(const std::string& key, int v) {
      fields_.emplace_back(key, std::to_string(v));
      return *this;
    }
    Row& boolean(const std::string& key, bool v) {
      fields_.emplace_back(key, v ? "true" : "false");
      return *this;
    }
    Row& str(const std::string& key, const std::string& v) {
      fields_.emplace_back(key, serve::json_quote(v));
      return *this;
    }

   private:
    friend class JsonReport;
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  /// Start a row; the returned reference stays valid until the next call.
  Row& row(const std::string& name) {
    rows_.emplace_back();
    rows_.back().str("name", name);
    return rows_.back();
  }

  void write(std::ostream& os) const {
    os << "{\"benchmark\": " << serve::json_quote(benchmark_)
       << ",\n \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << (r == 0 ? "\n" : ",\n") << "  {";
      const auto& fields = rows_[r].fields_;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        if (f != 0) os << ", ";
        os << serve::json_quote(fields[f].first) << ": " << fields[f].second;
      }
      os << "}";
    }
    os << "\n ]}\n";
  }

 private:
  std::string benchmark_;
  std::vector<Row> rows_;
};

}  // namespace xoridx::bench
