#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "serve/json.hpp"

namespace perfbench {
namespace {

bool name_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

bool alnum(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9');
}

/// 1-based nearest rank of percentile p over n samples.
std::size_t nearest_rank(double p, std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// JSON number with round-trip precision (non-finite values print 0).
std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%.17g", value);
  return buf.data();
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Percentile percentile_with_floor(std::vector<double> samples, double p,
                                 std::size_t min_beyond) {
  Percentile out;
  out.samples = samples.size();
  out.percentile = p;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  constexpr std::array<double, 6> ladder = {99.9, 99, 95, 90, 75, 50};
  double chosen = 50;
  for (const double q : ladder) {
    if (q > p) continue;
    chosen = q;
    if (n - nearest_rank(q, n) >= min_beyond) break;
  }
  if (p < 50) chosen = p;
  out.percentile = chosen;
  out.value = samples[nearest_rank(chosen, n) - 1];
  return out;
}

void MetricSet::add(std::string name, double value, std::string unit) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("bad metric name '" + name + "'");
  if (!valid_unit(unit))
    throw std::invalid_argument("bad unit '" + unit + "' of " + name);
  if (find(name) != nullptr)
    throw std::invalid_argument("duplicate metric '" + name + "'");
  items_.push_back({std::move(name), value, std::move(unit)});
}

const Metric* MetricSet::find(std::string_view name) const {
  for (const Metric& m : items_)
    if (m.name == name) return &m;
  return nullptr;
}

const std::vector<MetricInfo>& metric_catalog() {
  static const std::vector<MetricInfo> catalog = [] {
    std::vector<MetricInfo> c = {
        {"setup_s", "s", false},
        {"campaign_s", "s", false},
        {"peak_rss_mb", "MiB", false},
        {"misses_removed_pct", "%", false},
    };
    const std::vector<std::pair<const char*, const char*>> layers = {
        {"workloads.synth_s", "s"},
        {"workloads.accesses", "count"},
        {"tracestore.write_s", "s"},
        {"tracestore.decode_s", "s"},
        {"tracestore.accesses_decoded", "count"},
        {"tracestore.decode_maccess_per_s", "Maccess/s"},
        {"profile.builds", "count"},
        {"profile.build_s", "s"},
        {"profile.build_s.max", "s"},
        {"profile.pairs", "count"},
        {"profile.ns_per_pair", "ns"},
        {"profile.profiled_ratio", "ratio"},
        {"profile.zeta_s", "s"},
        {"cache.direct_mapped_s", "s"},
        {"cache.fully_associative_s", "s"},
        {"cache.classify_s", "s"},
        {"cache.exhaustive_exact_s", "s"},
        {"cache.passes", "count"},
        {"cache.accesses_simulated", "count"},
        {"cache.ns_per_access", "ns"},
        {"search.perm_s", "s"},
        {"search.xor_s", "s"},
        {"search.bitselect_s", "s"},
        {"search.exhaustive_est_s", "s"},
        {"search.evaluations", "count"},
        {"search.ns_per_eval", "ns"},
        {"search.estimator_error_pct", "%"},
        {"engine.cells", "count"},
        {"engine.overhead_s", "s"},
        {"engine.profile_cache.hit_ratio", "ratio"},
        {"engine.queue_wait_p99_ms", "ms"},
        {"io.csv_write_s", "s"},
        {"io.csv_bytes", "bytes"},
        {"serve.requests", "count"},
        {"serve.admit_p99_ms", "ms"},
        {"serve.exec_p50_ms", "ms"},
        {"serve.exec_p99_ms", "ms"},
        {"serve.memo_hit_ratio", "ratio"},
        {"serve.rejected", "count"},
        {"serve.profiles_built", "count"},
        {"serve.profiles_shared", "count"},
        {"loadgen.lag_p99_ms", "ms"},
        {"loadgen.offered_rps", "1/s"},
        {"tracestore.self_pct", "%"},
        {"profile.self_pct", "%"},
        {"cache.self_pct", "%"},
        {"search.self_pct", "%"},
        {"engine.self_pct", "%"},
        {"io.self_pct", "%"},
        {"bench.trace_overhead_pct", "%"},
    };
    for (const auto& [name, unit] : layers) c.push_back({name, unit, true});
    return c;
  }();
  return catalog;
}

MetricSet complete_metrics(const MetricSet& measured, bool per_layer) {
  MetricSet out;
  for (const MetricInfo& info : metric_catalog()) {
    if (info.per_layer != per_layer) continue;
    const Metric* m = measured.find(info.name);
    if (m == nullptr && !per_layer)
      throw std::logic_error("end-to-end metric " + info.name +
                             " was not measured");
    if (m != nullptr && m->unit != info.unit)
      throw std::logic_error("metric " + info.name + " measured in " +
                             m->unit + ", catalog says " + info.unit);
    out.add(info.name, m != nullptr ? m->value : 0.0, info.unit);
  }
  for (const Metric& m : measured.items())
    if (out.find(m.name) == nullptr)
      throw std::logic_error("metric " + m.name + " is not in the " +
                             (per_layer ? "per-layer" : "end-to-end") +
                             " catalog");
  return out;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    if (!first) out += ", ";
    first = false;
    out += xoridx::serve::json_quote(m.name) + ": {\"value\": " +
           json_number(m.value) +
           ", \"unit\": " + xoridx::serve::json_quote(m.unit) + "}";
  }
  out += "}}";
  return out;
}

double histogram_p99_ms(const xoridx::obs::Snapshot& before,
                        const xoridx::obs::Snapshot& after,
                        const std::string& name) {
  const auto find = [&](const xoridx::obs::Snapshot& s) {
    for (const auto& [n, h] : s.histograms)
      if (n == name) return h;
    return xoridx::obs::HistogramSnapshot{};
  };
  const xoridx::obs::HistogramSnapshot a = find(before);
  const xoridx::obs::HistogramSnapshot b = find(after);
  const std::uint64_t count = b.count - a.count;
  if (count == 0) return 0.0;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < b.buckets.size(); ++i) {
    seen += b.buckets[i] - a.buckets[i];
    if (static_cast<double>(seen) >= 0.99 * static_cast<double>(count))
      return i == 0 ? 0.0
                    : static_cast<double>((std::uint64_t{1} << i) - 1) * 1e-6;
  }
  return static_cast<double>(b.max) * 1e-6;
}

double peak_rss_mb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
