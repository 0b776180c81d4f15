#include "search/optimizer.hpp"

#include <cassert>
#include <stdexcept>

#include "hash/xor_function.hpp"
#include "obs/metrics.hpp"
#include "search/bit_select_search.hpp"
#include "search/permutation_search.hpp"
#include "search/subspace_search.hpp"

namespace xoridx::search {
namespace {

/// The profile-guided part of the pipeline: search the requested class
/// for the smallest Eq.-4 estimate. Exact simulation of the winner is the
/// caller's job.
OptimizationResult pick_function(const cache::CacheGeometry& geometry,
                                 const profile::ConflictProfile& profile,
                                 const OptimizeOptions& options) {
  const int n = options.hashed_bits;
  const int m = geometry.index_bits();
  if (profile.hashed_bits() != n)
    throw std::invalid_argument("profile hashed_bits mismatch");
  if (m > n)
    throw std::invalid_argument("cache needs more index bits than hashed bits");

  OptimizationResult result;
  switch (options.search.function_class) {
    case FunctionClass::bit_select: {
      BitSelectSearchResult r = search_bit_select(profile, m, options.search);
      result.function =
          std::make_unique<hash::BitSelectFunction>(std::move(r.function));
      result.stats = r.stats;
      break;
    }
    case FunctionClass::permutation: {
      PermutationSearchResult r =
          search_permutation(profile, m, options.search);
      result.function =
          std::make_unique<hash::PermutationFunction>(std::move(r.function));
      result.stats = r.stats;
      break;
    }
    case FunctionClass::general_xor: {
      SubspaceSearchResult r = search_general_xor(profile, m, options.search);
      result.function =
          std::make_unique<hash::XorFunction>(std::move(r.function));
      result.stats = r.stats;
      break;
    }
  }
  result.estimated_misses = result.stats.best_estimate;
  return result;
}

/// Fill in the exact baseline/winner numbers and apply revert_if_worse.
/// Records the chosen function's Eq.-4 error against its exact misses,
/// before any revert, once per optimize call.
void finalize(OptimizationResult& result, const cache::CacheStats& base,
              const cache::CacheStats& opt,
              const hash::XorFunction& conventional,
              const OptimizeOptions& options) {
  XORIDX_OBS_HIST("estimator.abs_error",
                  result.estimated_misses > opt.misses
                      ? result.estimated_misses - opt.misses
                      : opt.misses - result.estimated_misses);
  result.baseline_misses = base.misses;
  result.optimized_misses = opt.misses;
  result.accesses = base.accesses;
  if (options.revert_if_worse && opt.misses > base.misses) {
    result.function = conventional.clone();
    result.optimized_misses = base.misses;
    result.reverted = true;
  }
}

}  // namespace

OptimizationResult optimize_index(tracestore::TraceInput t,
                                  const cache::CacheGeometry& geometry,
                                  const OptimizeOptions& options) {
  const profile::ConflictProfile profile =
      profile::build_conflict_profile(t, geometry, options.hashed_bits);
  return optimize_index_with_profile(t, geometry, profile, options);
}

OptimizationResult optimize_index_with_profile(
    tracestore::TraceInput t, const cache::CacheGeometry& geometry,
    const profile::ConflictProfile& profile, const OptimizeOptions& options,
    const cache::CacheStats* known_baseline) {
  OptimizationResult result = pick_function(geometry, profile, options);
  const hash::XorFunction conventional = hash::XorFunction::conventional(
      options.hashed_bits, geometry.index_bits());
  const cache::CacheStats base =
      known_baseline ? *known_baseline
                     : cache::simulate_direct_mapped(t, geometry,
                                                     conventional);
  const cache::CacheStats opt =
      cache::simulate_direct_mapped(t, geometry, *result.function);
  // Eq. 4 plus the misses the profile cannot see bounds the exact misses
  // of any linear index function from above (Eq4Bound in property_test).
  assert(opt.misses <= profile.compulsory_refs +
                           profile.capacity_filtered_refs +
                           result.estimated_misses);
  finalize(result, base, opt, conventional, options);
  return result;
}

}  // namespace xoridx::search
