// The benchmark's workloads: what one run measures and reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;  ///< false: end-to-end metrics; true: per-layer
  std::string out_dir = ".bench_out";
  double serve_rate = 0.0;  ///< serve episode arrivals per second (required)
};

struct RunResult {
  MetricSet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
};

/// `table2` or `sweep`: timed cold campaigns through api::Explorer, then a
/// replay of every cell through the layers' public functions.
[[nodiscard]] RunResult run_campaign_workload(const RunOptions& options);

/// The serve episode of the traced `sweep` run: seeded open-loop NDJSON
/// load on an in-process serve::Server for `options.seconds`; reports the
/// serve.* and loadgen.* per-layer metrics.
[[nodiscard]] RunResult run_serve_episode(const RunOptions& options);

/// The correctness gate: how many positions of `actual` differ from
/// `expected` (a length difference counts every unmatched row).
[[nodiscard]] std::size_t count_row_mismatches(
    const std::vector<std::string>& expected,
    const std::vector<std::string>& actual);

}  // namespace perfbench
