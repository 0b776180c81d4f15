#include "api/explorer.hpp"

#include <exception>
#include <filesystem>
#include <utility>
#include <variant>

#include "api/internal.hpp"
#include "engine/thread_pool.hpp"
#include "hash/xor_function.hpp"
#include "search/optimizer.hpp"

namespace xoridx::api {

namespace {

using internal::status_from_current_exception;

}  // namespace

Result<cache::CacheGeometry> GeometrySpec::validate() const {
  try {
    return cache::CacheGeometry(size_bytes, block_bytes, associativity);
  } catch (const std::exception& e) {
    return Status(StatusCode::invalid_argument,
                  std::string(e.what()) + " (geometry " + to_string() + ")")
        .with_geometry(to_string());
  }
}

std::string GeometrySpec::to_string() const {
  return std::to_string(size_bytes) + "B/" + std::to_string(block_bytes) +
         "B/" + std::to_string(associativity) + "-way";
}

unsigned default_threads() { return engine::ThreadPool::default_threads(); }

Result<internal::LoweredRequest> internal::validate_and_lower(
    const ExplorationRequest& request) {
  if (request.traces.empty())
    return Status(StatusCode::invalid_argument,
                  "exploration request names no traces");
  if (request.geometries.empty())
    return Status(StatusCode::invalid_argument,
                  "exploration request names no geometries");
  if (request.strategies.empty())
    return Status(StatusCode::invalid_argument,
                  "exploration request names no strategies");
  // Same bound as ConflictProfile's dense table — rejecting here stops
  // a 2^n counter allocation from being attempted inside a job first.
  if (request.hashed_bits < 1 || request.hashed_bits > 24)
    return Status(StatusCode::invalid_argument,
                  "hashed_bits must be in [1, 24], got " +
                      std::to_string(request.hashed_bits) +
                      " (the conflict profile holds 2^n counters)");

  LoweredRequest lowered;
  for (const GeometrySpec& g : request.geometries) {
    Result<cache::CacheGeometry> geom = g.validate();
    if (!geom.ok()) return geom.status();
    if (geom->index_bits() > request.hashed_bits)
      return Status(StatusCode::invalid_argument,
                    "geometry " + geom->to_string() + " needs " +
                        std::to_string(geom->index_bits()) +
                        " index bits but the request hashes only " +
                        std::to_string(request.hashed_bits) +
                        " address bits (m <= n required)")
          .with_geometry(geom->to_string());
    lowered.geometries.push_back(*geom);
  }
  for (const Strategy& strategy : request.strategies) {
    Result<engine::FunctionConfig> config = lower_strategy(strategy);
    if (!config.ok()) return config.status();
    lowered.configs.push_back(std::move(*config));
  }
  return lowered;
}

Result<std::unique_ptr<engine::Campaign>> internal::build_campaign(
    const ExplorationRequest& request,
    std::shared_ptr<engine::ProfileCache> shared_profiles) {
  Result<internal::LoweredRequest> lowered =
      internal::validate_and_lower(request);
  if (!lowered.ok()) return lowered.status();

  engine::SweepSpec spec;
  spec.hashed_bits = request.hashed_bits;
  spec.geometries = std::move(lowered->geometries);
  spec.configs = std::move(lowered->configs);

  for (const TraceRef& ref : request.traces) {
    Result<engine::TraceEntry> entry = ref.lower();
    if (!entry.ok()) return entry.status();
    spec.traces.push_back(std::move(*entry));
  }

  try {
    const bool private_cache = shared_profiles == nullptr;
    auto campaign = std::make_unique<engine::Campaign>(
        std::move(spec), std::move(shared_profiles));
    if (private_cache && request.profile_cache_bytes > 0)
      campaign->profiles().set_byte_budget(request.profile_cache_bytes);
    return campaign;
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error);
  }
}

Status internal::status_from_campaign_error(const engine::CampaignError& e) {
  // Preserve the wrapped exception's class: environment failures
  // (unreadable chunks, vanished files) are io_error, not internal.
  const StatusCode code =
      e.cause() == engine::CampaignError::Cause::invalid_argument
          ? StatusCode::invalid_argument
      : e.cause() == engine::CampaignError::Cause::runtime
          ? StatusCode::io_error
          : StatusCode::internal;
  return Status(code, std::string("sweep job failed: ") + e.what())
      .with_cell(e.trace_name(), e.geometry().to_string(), e.label());
}

Result<Report> Explorer::explore(const ExplorationRequest& request) {
  Result<std::unique_ptr<engine::Campaign>> built =
      internal::build_campaign(request);
  if (!built.ok()) return built.status();
  engine::Campaign& campaign = **built;

  try {
    engine::CampaignOptions options;
    options.num_threads = request.num_threads;
    options.sink = request.sink;
    options.cancel = request.cancel;

    Report report;
    report.rows = campaign.run(options);
    for (const engine::TraceEntry& entry : campaign.spec().traces)
      report.trace_names.push_back(entry.name);
    report.geometries = campaign.spec().geometries;
    for (const engine::FunctionConfig& config : campaign.spec().configs)
      report.strategy_labels.push_back(config.label);
    report.profiles_built = campaign.profiles().misses();
    report.profiles_shared = campaign.profiles().hits();
    return report;
  } catch (const engine::CampaignCancelled&) {
    return Status(StatusCode::cancelled,
                  "exploration cancelled before the sweep completed");
  } catch (const engine::CampaignError& e) {
    return internal::status_from_campaign_error(e);
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error);
  }
}

Result<xoridx::profile::ConflictProfile> build_profile(
    const TraceRef& trace, const GeometrySpec& geometry, int hashed_bits) {
  Result<cache::CacheGeometry> geom = geometry.validate();
  if (!geom.ok()) return geom.status();
  Result<std::unique_ptr<tracestore::TraceSource>> source = trace.open();
  if (!source.ok()) return source.status();
  try {
    return profile::build_conflict_profile(**source, *geom, hashed_bits);
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error)
        .with_trace(trace.name())
        .with_geometry(geom->to_string());
  }
}

Result<TuneOutcome> tune(const TraceRef& trace, const GeometrySpec& geometry,
                         const Strategy& strategy, int hashed_bits) {
  Result<cache::CacheGeometry> geom = geometry.validate();
  if (!geom.ok()) return geom.status();
  Result<engine::FunctionConfig> config = lower_strategy(strategy);
  if (!config.ok()) return config.status();
  const auto* search_job =
      std::get_if<engine::OptimizeIndexJob>(&config->payload);
  if (!search_job)
    return Status(StatusCode::invalid_argument,
                  "strategy '" + strategy.spec +
                      "' is not a search strategy (expected perm, xor or "
                      "bitselect)")
        .with_strategy(strategy.spec);
  if (geom->index_bits() > hashed_bits)
    return Status(StatusCode::invalid_argument,
                  "geometry " + geom->to_string() + " needs " +
                      std::to_string(geom->index_bits()) +
                      " index bits but only " + std::to_string(hashed_bits) +
                      " address bits are hashed (m <= n required)")
        .with_geometry(geom->to_string());

  Result<std::unique_ptr<tracestore::TraceSource>> source = trace.open();
  if (!source.ok()) return source.status();

  const search::OptimizeOptions options = search_job->options(hashed_bits);
  try {
    const profile::ConflictProfile prof =
        profile::build_conflict_profile(**source, *geom, hashed_bits);
    return search::optimize_index_with_profile(**source, *geom, prof,
                                               options);
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error)
        .with_cell(trace.name(), geom->to_string(), config->label);
  }
}

Result<cache::MissBreakdown> simulate(const TraceRef& trace,
                                      const GeometrySpec& geometry,
                                      const hash::IndexFunction* function,
                                      int hashed_bits) {
  Result<cache::CacheGeometry> geom = geometry.validate();
  if (!geom.ok()) return geom.status();
  Result<std::unique_ptr<tracestore::TraceSource>> source = trace.open();
  if (!source.ok()) return source.status();
  try {
    if (function) return cache::classify_misses(**source, *geom, *function);
    const hash::XorFunction conventional =
        hash::XorFunction::conventional(hashed_bits, geom->index_bits());
    return cache::classify_misses(**source, *geom, conventional);
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error)
        .with_trace(trace.name())
        .with_geometry(geom->to_string());
  }
}

Result<tracestore::TraceFileInfo> trace_info(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec))
    return Status(StatusCode::not_found, "trace file not found: " + path);
  try {
    return tracestore::trace_file_info(path);
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error);
  }
}

Result<ConversionSummary> convert_trace(const std::string& in_path,
                                        const std::string& out_path,
                                        tracestore::TraceFormat to,
                                        std::uint32_t chunk_capacity) {
  std::error_code ec;
  if (!std::filesystem::exists(in_path, ec))
    return Status(StatusCode::not_found,
                  "trace file not found: " + in_path);
  try {
    ConversionSummary summary;
    summary.format = to;
    summary.id =
        tracestore::convert_trace(in_path, out_path, to, chunk_capacity);
    // Header-only metadata (a trace_file_info on a v1 output would
    // re-scan the whole file just to recompute the id we already have).
    summary.accesses =
        to == tracestore::TraceFormat::v2
            ? tracestore::MmapTraceReader(out_path).info().accesses
            : tracestore::V1FileSource(out_path).size();
    summary.file_bytes = std::filesystem::file_size(out_path);
    return summary;
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error);
  }
}

}  // namespace xoridx::api
