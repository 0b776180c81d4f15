// xoridx/fleet.hpp — multi-process fleet dispatch for sharded
// campaigns, part of the stable public surface (versioned by
// XORIDX_VERSION alongside xoridx/api.hpp and xoridx/shard.hpp).
//
// The driver behind `xoridx fleet`, importable as a library so tests,
// benches and cluster frontends can run it in-process:
//
//   dispatch_fleet / FleetOptions  run a ShardPlan: launch one worker
//                                  per shard, watch heartbeats,
//                                  retry/requeue shards whose reports
//                                  never arrive or fail validation, and
//                                  merge incrementally into a report
//                                  whose CSV is byte-identical to the
//                                  unsharded run
//   Launcher / ExecLauncher /      how workers are started: local
//   SshLauncher                    fork/exec now, ssh behind the same
//                                  interface (shared filesystem)
//   HeartbeatWriter /              worker liveness via sidecar-file
//   heartbeat_age_s                mtime — no sockets, no protocol
//   Manifest / save_manifest /     the durable campaign manifest behind
//   load_manifest                  `xoridx fleet --resume`
#pragma once

#include "fleet/dispatcher.hpp"  // IWYU pragma: export
#include "fleet/heartbeat.hpp"   // IWYU pragma: export
#include "fleet/launcher.hpp"    // IWYU pragma: export
#include "fleet/manifest.hpp"    // IWYU pragma: export
