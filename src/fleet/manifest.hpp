// Campaign manifest: the fleet driver's durable record of a campaign.
//
// Written atomically into the work dir before the first launch and after
// every attempt-count change, the manifest is what makes a campaign
// resumable after the *driver* dies: `xoridx fleet --resume` reloads it,
// refuses if its request fingerprint or shard count disagree with the
// rebuilt request (resuming someone else's work dir must be an error,
// not a silently wrong merge), restores the per-shard attempt budget,
// and re-validates landed reports instead of re-running their workers.
//
// On disk it is one compact JSON document (serve/json) followed by the
// io/ checksum trailer, so a torn manifest (should the atomic-write
// protocol ever be bypassed) is detected rather than trusted:
//
//   {"fleet_manifest":2,"fingerprint":"<32 hex>","shards":<n>,
//    "total_cells":<count>,"attempts":[<a1>,...,<an>]}
//   checksum <16 hex: fnv1a of all preceding bytes>
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.hpp"
#include "shard/plan.hpp"

namespace xoridx::fleet {

struct Manifest {
  shard::Fingerprint fingerprint;
  std::uint32_t num_shards = 0;
  std::uint64_t total_cells = 0;
  /// Launches consumed per shard (index 0 = shard 1), so a resumed
  /// campaign keeps honoring max_attempts across driver deaths.
  std::vector<std::uint32_t> attempts;
};

/// On-disk format version; the line-oriented text manifest of older
/// builds was v1.
inline constexpr std::uint32_t manifest_format_version = 2;

/// Where the manifest lives inside a fleet work dir.
[[nodiscard]] std::string manifest_path(const std::string& work_dir);

/// Atomically persist the manifest (failpoint site: fleet.manifest.write).
[[nodiscard]] api::Status save_manifest(const Manifest& manifest,
                                        const std::string& path);

/// Load and validate a manifest. not_found when the file is absent;
/// io_error (naming the path and the reason) for a torn, corrupt or
/// internally inconsistent file.
[[nodiscard]] api::Result<Manifest> load_manifest(const std::string& path);

/// The bytes save_manifest writes, and their inverse (never throws;
/// every problem is an io_error naming it).
[[nodiscard]] std::string encode_manifest(const Manifest& manifest);
[[nodiscard]] api::Result<Manifest> decode_manifest(std::string_view bytes);

}  // namespace xoridx::fleet
