#include "fleet/manifest.hpp"

#include <cstring>

#include "fail/failpoint.hpp"
#include "io/atomic_file.hpp"
#include "io/sealed_json.hpp"
#include "serve/json.hpp"

namespace xoridx::fleet {

using api::Status;
using api::StatusCode;
using serve::JsonValue;

std::string manifest_path(const std::string& work_dir) {
  return work_dir + "/campaign.manifest";
}

namespace {

JsonValue encode_json(const Manifest& manifest) {
  JsonValue out = JsonValue::object();
  out.set("fleet_manifest",
          static_cast<std::int64_t>(manifest_format_version));
  out.set("fingerprint", manifest.fingerprint.to_string());
  out.set("shards", std::uint64_t{manifest.num_shards});
  out.set("total_cells", manifest.total_cells);
  JsonValue attempts = JsonValue::array();
  for (const std::uint32_t a : manifest.attempts)
    attempts.push_back(std::uint64_t{a});
  out.set("attempts", std::move(attempts));
  return out;
}

/// The lenient read io::decode_sealed_json checks by re-encoding.
Manifest decode_json(const JsonValue& v) {
  Manifest manifest;
  manifest.fingerprint =
      shard::Fingerprint::parse(v.at("fingerprint").as_string())
          .value_or(shard::Fingerprint{});
  manifest.num_shards = static_cast<std::uint32_t>(v.at("shards").as_int());
  manifest.total_cells =
      static_cast<std::uint64_t>(v.at("total_cells").as_int());
  for (const JsonValue& a : v.at("attempts").items())
    manifest.attempts.push_back(static_cast<std::uint32_t>(a.as_int()));
  return manifest;
}

}  // namespace

std::string encode_manifest(const Manifest& manifest) {
  return io::seal_checksum(encode_json(manifest).serialize());
}

api::Result<Manifest> decode_manifest(std::string_view bytes) {
  const auto corrupt = [](const std::string& why) {
    return Status(StatusCode::io_error, "fleet manifest " + why);
  };
  if (bytes.starts_with("xoridx-fleet-manifest v1\n"))
    return corrupt("is the text format v1 of an older xoridx; this build "
                   "reads v" + std::to_string(manifest_format_version) +
                   " only, so start the campaign again without --resume");
  api::Result<Manifest> manifest = io::decode_sealed_json<Manifest>(
      bytes, "fleet manifest", "fleet_manifest", manifest_format_version,
      decode_json, encode_json);
  if (!manifest.ok()) return manifest;
  if (manifest->num_shards == 0) return corrupt("records zero shards");
  if (manifest->attempts.size() != manifest->num_shards)
    return corrupt("attempts list has " +
                   std::to_string(manifest->attempts.size()) +
                   " entries for " + std::to_string(manifest->num_shards) +
                   " shards");
  return manifest;
}

Status save_manifest(const Manifest& manifest, const std::string& path) {
  if (int injected = XORIDX_FAILPOINT("fleet.manifest.write"); injected != 0)
    return Status(StatusCode::io_error,
                  "cannot write fleet manifest " + path + ": " +
                      std::strerror(injected));
  return io::write_file_atomic(path, encode_manifest(manifest));
}

api::Result<Manifest> load_manifest(const std::string& path) {
  const api::Result<std::string> data = io::read_file(path, "fleet manifest");
  if (!data.ok()) return data.status();
  api::Result<Manifest> manifest = decode_manifest(*data);
  if (!manifest.ok())
    return Status(manifest.status().code(),
                  manifest.status().message() + ": " + path);
  return manifest;
}

}  // namespace xoridx::fleet
