// ShardPlan: deterministic partitioning of an ExplorationRequest into N
// self-contained shards.
//
// A campaign's cells are the cross product traces x geometries x
// strategies, flat-indexed in stable request order (trace-major, then
// geometry, then strategy). The plan assigns every (trace, geometry)
// group — the unit the engine's ProfileCache deduplicates over — to
// exactly one shard, balancing shards by estimated cost (trace length x
// strategy weight) rather than round-robin, and keeping all geometries
// of a trace on one shard when balance allows so the shard loads each
// trace once and reuses its ProfileCache entries across strategies.
//
// Every process that computes a plan from the same request gets the same
// plan: partitioning is a pure function of the request, so N shard
// processes launched with identical arguments and `--shard i/N` agree on
// who owns which cells without coordinating.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/explorer.hpp"
#include "api/status.hpp"

namespace xoridx::api::internal {
struct ResolvedRequest;  // api/internal.hpp, private to the library
}  // namespace xoridx::api::internal

namespace xoridx::shard {

/// 128-bit structural fingerprint of an ExplorationRequest: trace names +
/// content ids + lengths, geometries, lowered strategies and hashed_bits.
/// Two requests fingerprint equal iff they describe the same sweep (by
/// trace content, not by path), so shard reports from mismatched
/// campaigns cannot be merged.
struct Fingerprint {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  [[nodiscard]] bool empty() const noexcept { return lo == 0 && hi == 0; }
  /// 32 hex digits, `hi` first.
  [[nodiscard]] std::string to_string() const;
  /// The inverse of to_string; nullopt unless `hex` is exactly 32 hex
  /// digits.
  [[nodiscard]] static std::optional<Fingerprint> parse(std::string_view hex);

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Half-open range of flat cell indices, [begin, end).
struct CellRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }

  friend bool operator==(const CellRange&, const CellRange&) = default;
};

/// A parsed "--shard i/N" selector: 1-based index into an N-way plan.
struct ShardRef {
  std::uint32_t index = 1;  ///< 1-based
  std::uint32_t count = 1;

  [[nodiscard]] std::string to_string() const;
};

/// Parse "i/N". Errors name the bad value: index 0, index > N, zero
/// count, or non-numeric fields.
[[nodiscard]] api::Result<ShardRef> parse_shard_ref(std::string_view spec);

class ShardPlan {
 public:
  /// Resolve the request (api::internal::resolve, the same checks and
  /// errors as Explorer::explore) and partition it into `num_shards`
  /// shards. The plan keeps the resolved request, so run_shard lowers
  /// each slice under it without validating or resolving again. Shards
  /// may be empty when the request has fewer (trace, geometry) groups
  /// than shards.
  [[nodiscard]] static api::Result<ShardPlan> partition(
      const api::ExplorationRequest& request, std::uint32_t num_shards);

  /// The cells of one trace a shard owns: all strategies of the named
  /// geometries. Geometry indices are in request order.
  struct TraceSlice {
    std::size_t trace = 0;
    std::vector<std::size_t> geometries;
  };

  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const Fingerprint& fingerprint() const noexcept {
    return fingerprint_;
  }
  [[nodiscard]] std::uint64_t total_cells() const noexcept {
    return static_cast<std::uint64_t>(trace_count()) * geometry_count() *
           strategy_count();
  }
  [[nodiscard]] std::size_t trace_count() const noexcept;
  [[nodiscard]] std::size_t geometry_count() const noexcept;
  [[nodiscard]] std::size_t strategy_count() const noexcept;
  /// The request this plan was computed from, validated and resolved
  /// (copies of the plan share it).
  [[nodiscard]] const api::internal::ResolvedRequest& resolved()
      const noexcept {
    return *resolved_;
  }

  /// Slices of one shard, ascending by trace index. `shard_index` is
  /// 1-based, matching "--shard i/N".
  [[nodiscard]] const std::vector<TraceSlice>& slices(
      std::uint32_t shard_index) const {
    return shards_.at(shard_index - 1);
  }

  /// Flat cell ranges one shard covers: sorted, non-overlapping, with
  /// adjacent ranges coalesced. The union over all shards tiles
  /// [0, total_cells()) exactly.
  [[nodiscard]] std::vector<CellRange> ranges(std::uint32_t shard_index) const;

  /// Estimated cost assigned to one shard (arbitrary units; useful for
  /// reporting balance).
  [[nodiscard]] double estimated_cost(std::uint32_t shard_index) const {
    return costs_.at(shard_index - 1);
  }

 private:
  ShardPlan() = default;  // plans come from partition()

  Fingerprint fingerprint_;
  std::shared_ptr<const api::internal::ResolvedRequest> resolved_;
  std::vector<std::vector<TraceSlice>> shards_;
  std::vector<double> costs_;
};

/// Fingerprint of a request on its own (the plan computes the same value;
/// exposed for tooling that only needs identity, not a partition).
[[nodiscard]] api::Result<Fingerprint> fingerprint_request(
    const api::ExplorationRequest& request);

/// The same fingerprint from the request's resolved form, for callers
/// that run what they fingerprint (the serving daemon's memo key).
[[nodiscard]] Fingerprint fingerprint_request(
    const api::ExplorationRequest& request,
    const api::internal::ResolvedRequest& resolved);

}  // namespace xoridx::shard
