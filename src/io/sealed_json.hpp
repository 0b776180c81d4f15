// Decoding a durable JSON artifact (a shard report, the fleet manifest):
// one compact JSON document, sealed with the checksum trailer of
// io/atomic_file.hpp, whose member `version_key` holds its format version.
//
// `read` takes members leniently (serve::JsonValue::at reads a missing
// member as null; a value of the wrong kind reads as 0, "" or false), and
// the artifact is accepted only if `write` re-encodes what was read to the
// exact bytes it came from. So a missing, unknown, duplicated or mistyped
// member, an integer out of its field's range and any non-canonical
// spelling are all rejected without a check per member. `read` throws
// std::invalid_argument for a value no encoder writes (an invalid
// geometry, an unknown status code).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "api/status.hpp"
#include "io/atomic_file.hpp"
#include "serve/json.hpp"

namespace xoridx::io {

/// `read` of the sealed artifact `bytes`, or an io_error that starts with
/// `what` and says which check failed.
template <typename T, typename Read, typename Write>
[[nodiscard]] api::Result<T> decode_sealed_json(std::string_view bytes,
                                                const std::string& what,
                                                std::string_view version_key,
                                                std::int64_t version,
                                                Read read, Write write) {
  const auto corrupt = [&what](const std::string& why) {
    return api::Status(api::StatusCode::io_error, what + " " + why);
  };
  const api::Result<std::string_view> body = open_checksum(bytes);
  if (!body.ok())
    return corrupt("is torn or corrupt: " + body.status().message());
  const api::Result<serve::JsonValue> doc = serve::parse_json(*body);
  if (!doc.ok()) return corrupt("is not valid JSON: " + doc.status().message());
  const serve::JsonValue& found = doc->at(version_key);
  if (found.is_null())
    return corrupt("has no \"" + std::string(version_key) +
                   "\" format member");
  if (found.serialize() != std::to_string(version))
    return corrupt("format v" + found.serialize() +
                   " unsupported (this build reads v" +
                   std::to_string(version) + ")");
  T value;
  try {
    value = read(*doc);
  } catch (const std::invalid_argument& e) {
    return corrupt(std::string("is invalid: ") + e.what());
  }
  if (write(value).serialize() != *body)
    return corrupt("does not match its canonical encoding (a member is "
                   "missing, unknown, mistyped or out of range)");
  return value;
}

}  // namespace xoridx::io
