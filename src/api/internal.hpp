// Internal helpers shared by the api/, shard/ and serve/ implementation
// files. Not part of the public surface — do not include from examples
// or benches.
#pragma once

#include <exception>
#include <memory>
#include <span>
#include <vector>

#include "api/explorer.hpp"
#include "api/status.hpp"
#include "cache/geometry.hpp"
#include "engine/campaign.hpp"
#include "engine/profile_cache.hpp"

namespace xoridx::api::internal {

/// Map the in-flight exception onto a Status: std::invalid_argument ->
/// invalid_argument, any other std::exception -> `runtime_code`,
/// non-standard exceptions -> internal.
[[nodiscard]] Status status_from_current_exception(StatusCode runtime_code);

/// A request validated and resolved once per run: its geometries, its
/// strategies lowered to the engine's configs, and each trace's content
/// id and length, all in request order. Explorer::explore, a
/// serve::Service request and shard::ShardPlan compute it once and hand
/// it on, so no trace is hashed, header-read or scanned twice in a run.
struct ResolvedRequest {
  std::vector<TraceRef::Identity> traces;
  std::vector<cache::CacheGeometry> geometries;
  std::vector<engine::FunctionConfig> configs;
};

/// The one request-validation path: empty-field checks, the hashed_bits
/// bound, geometry validation (including m <= n), strategy lowering and
/// each trace's TraceRef::identity() (nothing is loaded), in that order.
/// Sharded, unsharded and served runs accept exactly the same requests
/// with exactly the same errors.
[[nodiscard]] Result<ResolvedRequest> resolve(
    const ExplorationRequest& request);

/// Lower the selected traces with their resolved identities
/// (TraceRef::lower: eager files load here) and construct the campaign
/// over `traces` x `geometries` (indices into the request, ascending) x
/// every strategy. `shared_profiles` (optional) substitutes an
/// externally-owned ProfileCache so concurrent campaigns (the serving
/// daemon) share profile/zeta builds. Campaign is not movable (it owns
/// synchronization state), hence the unique_ptr.
[[nodiscard]] Result<std::unique_ptr<engine::Campaign>> build_campaign(
    const ExplorationRequest& request, const ResolvedRequest& resolved,
    std::span<const std::size_t> traces,
    std::span<const std::size_t> geometries,
    std::shared_ptr<engine::ProfileCache> shared_profiles = nullptr);

/// The campaign over the whole request.
[[nodiscard]] Result<std::unique_ptr<engine::Campaign>> build_campaign(
    const ExplorationRequest& request, const ResolvedRequest& resolved,
    std::shared_ptr<engine::ProfileCache> shared_profiles = nullptr);

/// Map a CampaignError onto the Status model, preserving the wrapped
/// exception's class and the failing cell.
[[nodiscard]] Status status_from_campaign_error(
    const engine::CampaignError& e);

/// The Status of a failed run_cells cell: its CampaignError mapped by
/// status_from_campaign_error; anything else is internal.
[[nodiscard]] Status cell_error_status(const std::exception_ptr& error);

}  // namespace xoridx::api::internal
