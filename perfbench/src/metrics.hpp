// Metric values, the percentile rule and the one-line result document.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xoridx::obs {
struct Snapshot;
}

namespace perfbench {

/// True when `name` is a legal metric or workload name: 1 to 64 of
/// [A-Za-z0-9_.-], starting with a letter or a digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// True when `unit` is 1 to 16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(std::string_view unit);

/// A percentile as reported: the value, the percentile actually used and
/// how many samples it was taken over.
struct Percentile {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`, falling back
/// to the next lower of {99.9, 99, 95, 90, 75, 50} while fewer than
/// `min_beyond` samples lie above the chosen rank. The median is the
/// floor of the fallback. Empty input yields a zero value.
[[nodiscard]] Percentile percentile_with_floor(std::vector<double> samples,
                                               double p,
                                               std::size_t min_beyond = 10);

[[nodiscard]] double median(std::vector<double> samples);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in insertion order; names must be unique and valid.
class MetricSet {
 public:
  /// Throws std::invalid_argument on a bad or duplicate name or unit.
  void add(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }
  [[nodiscard]] const Metric* find(std::string_view name) const;

 private:
  std::vector<Metric> items_;
};

/// One catalog entry (METRICS.md documents each).
struct MetricInfo {
  std::string name;
  std::string unit;
  bool per_layer = false;
};

/// Every metric the benchmark reports: end-to-end first, then per-layer.
[[nodiscard]] const std::vector<MetricInfo>& metric_catalog();

/// The catalog's metrics of one mode in catalog order, valued from
/// `measured`. A per-layer metric the workload did not measure reports
/// 0; a missing end-to-end metric, or a measured one outside the mode,
/// throws std::logic_error.
[[nodiscard]] MetricSet complete_metrics(const MetricSet& measured,
                                         bool per_layer);

/// The last line of a run: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..},...}}. Values print with
/// round-trip precision.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const MetricSet& metrics);

/// p99 in ms of what the log2-bucket obs histogram `name` recorded
/// between two registry snapshots (the upper bound of the bucket holding
/// it; 0 when nothing was recorded).
[[nodiscard]] double histogram_p99_ms(const xoridx::obs::Snapshot& before,
                                      const xoridx::obs::Snapshot& after,
                                      const std::string& name);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
