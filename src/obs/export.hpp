// Observability export formats beyond the native JSON documents:
//
//   Snapshot::write_openmetrics  (declared in obs/metrics.hpp, defined
//                                here) — the Prometheus/OpenMetrics text
//                                exposition the daemon's /metrics
//                                endpoint will serve, and what `xoridx
//                                merge --fleet-metrics-out` writes for a
//                                merged fleet snapshot.
//   merge_chrome_traces          stitch N per-shard --trace-out files
//                                into one Perfetto-loadable timeline:
//                                every input becomes its own process
//                                track (pid = input ordinal), named by
//                                its embedded process_name metadata
//                                event or, failing that, its file name.
//
// Both formats are pure functions of their inputs — no registry access,
// no global state — so they behave identically in XORIDX_OBS=OFF builds
// (the documents are just empty or pass-through).
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "api/status.hpp"

namespace xoridx::obs {

/// Stitch Chrome trace-event JSON documents (as written by
/// write_chrome_trace) into one document with one process track per
/// input: input i's events are re-labeled pid=i (1-based), so N shards
/// that all reported pid 1 — or recycled OS pids — still land on N
/// distinct tracks. Inputs without a process_name metadata event get one
/// synthesized from their file name; every event is re-serialized
/// compactly. Fails with a Status naming the file on unreadable input or
/// input that is not a trace-event document: malformed JSON (the parser's
/// message gives the byte offset), or no traceEvents array of objects.
[[nodiscard]] api::Status merge_chrome_traces(
    const std::vector<std::string>& input_paths, std::ostream& os);

}  // namespace xoridx::obs
