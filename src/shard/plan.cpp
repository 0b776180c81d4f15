#include "shard/plan.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <memory>
#include <utility>
#include <variant>

#include "api/internal.hpp"
#include "engine/campaign.hpp"
#include "io/atomic_file.hpp"
#include "io/fnv.hpp"

namespace xoridx::shard {

namespace {

using api::ExplorationRequest;
using api::Result;
using api::Status;
using api::StatusCode;

constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Two independent 64-bit streams (FNV-1a and a splitmix-style
/// position-dependent mix), like tracestore::TraceIdHasher but over the
/// request structure instead of accesses.
class FingerprintHasher {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte((v >> (8 * i)) & 0xffu);
  }
  void str(std::string_view s) {
    u64(s.size());
    for (unsigned char c : s) byte(c);
  }
  [[nodiscard]] Fingerprint digest() const {
    // Finalize with the byte count so prefixes don't collide.
    Fingerprint fp;
    fp.lo = splitmix64(a_ ^ count_);
    fp.hi = splitmix64(b_ + count_);
    return fp;
  }

 private:
  void byte(std::uint64_t c) {
    a_ = io::fnv1a(a_, static_cast<unsigned char>(c));
    b_ = splitmix64(b_ ^ (c + count_));
    ++count_;
  }

  std::uint64_t a_ = io::fnv1a_basis;
  std::uint64_t b_ = 0x9ae16a3b2f90404full;
  std::uint64_t count_ = 0;
};

/// Relative cost of running one strategy over one (trace, geometry) cell,
/// per trace access. Rough constants — what matters is the ordering:
/// exhaustive bit-select >> hill climbing (scaled by restarts) >>
/// classification > plain simulation.
double strategy_weight(const engine::JobPayload& payload) {
  struct Visitor {
    double operator()(const engine::EvaluateFunctionJob& j) const {
      return j.fully_associative ? 2.0 : 1.0;
    }
    double operator()(const engine::OptimizeIndexJob& j) const {
      return 6.0 * (1.0 + static_cast<double>(std::max(0, j.random_restarts)));
    }
    double operator()(const engine::OptimalBitSelectJob& j) const {
      return j.use_estimator ? 4.0 : 40.0;
    }
    double operator()(const engine::ClassifyMissesJob&) const { return 3.0; }
  };
  return std::visit(Visitor{}, payload);
}

void fold_payload(FingerprintHasher& h, const engine::JobPayload& payload) {
  struct Visitor {
    FingerprintHasher& h;
    void operator()(const engine::EvaluateFunctionJob& j) const {
      h.u64(1);
      h.u64(j.fully_associative ? 1 : 0);
      h.str(j.function ? j.function->describe() : "");
    }
    void operator()(const engine::OptimizeIndexJob& j) const {
      h.u64(2);
      h.u64(static_cast<std::uint64_t>(j.function_class));
      h.u64(static_cast<std::uint64_t>(j.max_fan_in));
      h.u64(j.revert_if_worse ? 1 : 0);
      h.u64(static_cast<std::uint64_t>(j.random_restarts));
      h.u64(j.seed);
      // threads never changes a cell's value, but it is part of the spec
      // string and therefore of the column label, so two requests that
      // differ only in threads= already produce different reports; fold
      // it for consistency with the labels.
      h.u64(static_cast<std::uint64_t>(j.threads));
    }
    void operator()(const engine::OptimalBitSelectJob& j) const {
      h.u64(3);
      h.u64(j.use_estimator ? 1 : 0);
    }
    void operator()(const engine::ClassifyMissesJob&) const { h.u64(4); }
  };
  std::visit(Visitor{h}, payload);
}

}  // namespace

Fingerprint fingerprint_request(
    const api::ExplorationRequest& request,
    const api::internal::ResolvedRequest& resolved) {
  FingerprintHasher h;
  h.str("xoridx-exploration-request-v1");
  h.u64(static_cast<std::uint64_t>(request.hashed_bits));
  h.u64(resolved.traces.size());
  for (std::size_t t = 0; t < resolved.traces.size(); ++t) {
    h.str(request.traces[t].name());
    h.u64(resolved.traces[t].id.lo);
    h.u64(resolved.traces[t].id.hi);
    h.u64(resolved.traces[t].accesses);
  }
  h.u64(resolved.geometries.size());
  for (const cache::CacheGeometry& g : resolved.geometries) {
    h.u64(g.size_bytes);
    h.u64(g.block_bytes);
    h.u64(g.associativity);
  }
  h.u64(resolved.configs.size());
  for (const engine::FunctionConfig& c : resolved.configs) {
    h.str(c.label);
    fold_payload(h, c.payload);
  }
  return h.digest();
}

std::string Fingerprint::to_string() const {
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::optional<Fingerprint> Fingerprint::parse(std::string_view hex) {
  Fingerprint fp;
  if (hex.size() != 32) return std::nullopt;
  for (auto [half, out] : {std::pair{hex.substr(0, 16), &fp.hi},
                           std::pair{hex.substr(16), &fp.lo}}) {
    const char* end = half.data() + half.size();
    if (std::from_chars(half.data(), end, *out, 16).ptr != end)
      return std::nullopt;
  }
  return fp;
}

std::string ShardRef::to_string() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

api::Result<ShardRef> parse_shard_ref(std::string_view spec) {
  const auto bad = [&](const std::string& why) {
    return Status(StatusCode::invalid_argument,
                  "bad shard spec '" + std::string(spec) + "': " + why +
                      " (expected i/N with 1 <= i <= N)");
  };
  const std::size_t slash = spec.find('/');
  if (slash == std::string_view::npos)
    return bad("missing '/' separator");
  const std::string_view index_text = spec.substr(0, slash);
  const std::string_view count_text = spec.substr(slash + 1);
  ShardRef ref;
  const auto parse_field = [](std::string_view text, std::uint32_t& out) {
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return !text.empty() && ec == std::errc{} &&
           ptr == text.data() + text.size();
  };
  if (!parse_field(index_text, ref.index))
    return bad("shard index '" + std::string(index_text) +
               "' is not a number");
  if (!parse_field(count_text, ref.count))
    return bad("shard count '" + std::string(count_text) +
               "' is not a number");
  if (ref.count == 0) return bad("shard count must be at least 1");
  if (ref.index == 0)
    return bad("shard index 0 is out of range (shards are numbered 1..N)");
  if (ref.index > ref.count)
    return bad("shard index " + std::to_string(ref.index) +
               " is out of range for " + std::to_string(ref.count) +
               " shards");
  return ref;
}

api::Result<Fingerprint> fingerprint_request(
    const api::ExplorationRequest& request) {
  Result<api::internal::ResolvedRequest> resolved =
      api::internal::resolve(request);
  if (!resolved.ok()) return resolved.status();
  return fingerprint_request(request, *resolved);
}

api::Result<ShardPlan> ShardPlan::partition(
    const api::ExplorationRequest& request, std::uint32_t num_shards) {
  if (num_shards == 0)
    return Status(StatusCode::invalid_argument,
                  "cannot partition a request into 0 shards");
  Result<api::internal::ResolvedRequest> resolved =
      api::internal::resolve(request);
  if (!resolved.ok()) return resolved.status();

  ShardPlan plan;
  plan.fingerprint_ = fingerprint_request(request, *resolved);
  plan.resolved_ = std::make_shared<const api::internal::ResolvedRequest>(
      std::move(*resolved));
  const std::size_t traces = plan.trace_count();
  const std::size_t geometries = plan.geometry_count();
  plan.shards_.resize(num_shards);
  plan.costs_.assign(num_shards, 0.0);

  // Per-(trace, geometry) cost: trace length x the summed strategy
  // weights (the geometry itself contributes a constant factor).
  double weight_sum = 0.0;
  for (const engine::FunctionConfig& c : plan.resolved_->configs)
    weight_sum += strategy_weight(c.payload);
  std::vector<double> group_cost(traces);
  double total_cost = 0.0;
  for (std::size_t t = 0; t < traces; ++t) {
    group_cost[t] =
        static_cast<double>(std::max<std::uint64_t>(
            1, plan.resolved_->traces[t].accesses)) *
        weight_sum;
    total_cost += group_cost[t] * static_cast<double>(geometries);
  }
  const double ideal = total_cost / static_cast<double>(num_shards);

  // Heaviest traces first (ties by request order), each to the least-
  // loaded shard. A trace that fits the ideal per-shard budget keeps all
  // its geometries together (ProfileCache / trace-load affinity); a
  // trace too big for one shard splits at geometry granularity.
  std::vector<std::size_t> order(traces);
  for (std::size_t t = 0; t < traces; ++t) order[t] = t;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return group_cost[a] > group_cost[b];
                   });
  const auto least_loaded = [&] {
    std::uint32_t best = 0;
    for (std::uint32_t s = 1; s < num_shards; ++s)
      if (plan.costs_[s] < plan.costs_[best]) best = s;
    return best;
  };
  const auto assign = [&](std::uint32_t s, std::size_t t,
                          std::size_t geometry) {
    std::vector<TraceSlice>& slices = plan.shards_[s];
    if (slices.empty() || slices.back().trace != t)
      slices.push_back(TraceSlice{t, {}});
    slices.back().geometries.push_back(geometry);
    plan.costs_[s] += group_cost[t];
  };
  for (const std::size_t t : order) {
    const double trace_cost =
        group_cost[t] * static_cast<double>(geometries);
    if (geometries == 1 || trace_cost <= ideal) {
      const std::uint32_t s = least_loaded();
      for (std::size_t g = 0; g < geometries; ++g) assign(s, t, g);
    } else {
      for (std::size_t g = 0; g < geometries; ++g)
        assign(least_loaded(), t, g);
    }
  }
  // Stable request order inside each shard, whatever the assignment
  // order was: ascending trace, ascending geometry.
  for (std::vector<TraceSlice>& slices : plan.shards_) {
    std::sort(slices.begin(), slices.end(),
              [](const TraceSlice& a, const TraceSlice& b) {
                return a.trace < b.trace;
              });
    for (TraceSlice& slice : slices)
      std::sort(slice.geometries.begin(), slice.geometries.end());
  }
  return plan;
}

std::size_t ShardPlan::trace_count() const noexcept {
  return resolved_->traces.size();
}

std::size_t ShardPlan::geometry_count() const noexcept {
  return resolved_->geometries.size();
}

std::size_t ShardPlan::strategy_count() const noexcept {
  return resolved_->configs.size();
}

std::vector<CellRange> ShardPlan::ranges(std::uint32_t shard_index) const {
  std::vector<CellRange> out;
  const std::uint64_t cells_per_group = strategy_count();
  for (const TraceSlice& slice : slices(shard_index)) {
    for (const std::size_t g : slice.geometries) {
      const std::uint64_t begin =
          (static_cast<std::uint64_t>(slice.trace) * geometry_count() + g) *
          cells_per_group;
      if (!out.empty() && out.back().end == begin)
        out.back().end = begin + cells_per_group;  // coalesce adjacent
      else
        out.push_back(CellRange{begin, begin + cells_per_group});
    }
  }
  return out;
}

}  // namespace xoridx::shard
