// Entry point of the trace store: format detection, file metadata,
// streaming open, eager load and format conversion.
//
// Everything here works for both on-disk formats — v1 (fixed 9-byte
// records, see format.hpp) and v2 (chunk-compressed, writer/reader). Each
// call maps the file once and reads the magic from that mapping, and
// every streaming path holds one batch of decoded accesses, never a chunk
// or the trace.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "tracestore/format.hpp"
#include "tracestore/reader.hpp"
#include "tracestore/trace_id.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::tracestore {

enum class TraceFormat { v1, v2 };

/// Sniff the magic of a trace file. Throws on unreadable/unknown files.
[[nodiscard]] TraceFormat detect_trace_format(const std::string& path);

/// Header-level metadata. For v2 the TraceId comes straight from the file
/// header; for v1 it is computed by a streaming scan (one batch resident).
[[nodiscard]] TraceFileInfo trace_file_info(const std::string& path);

/// Open a file of either format as a streaming TraceSource.
[[nodiscard]] std::unique_ptr<TraceSource> open_trace_source(
    const std::string& path);

/// Load a file of either format eagerly into an in-memory Trace.
[[nodiscard]] trace::Trace load_trace_any(const std::string& path);

/// Write a whole trace as a v1 file (a source is reset first and streamed
/// with O(batch) resident memory). Atomic like every other artifact: the
/// destination only appears complete. Throws std::runtime_error naming
/// the path on I/O failure. Returns the trace's content id.
TraceId save_trace_v1(const std::string& path, TraceInput t);

/// Convert between formats, streaming (never materializes the trace).
/// Returns the content id of the written trace, which always equals the
/// input's id.
TraceId convert_trace(const std::string& in_path, const std::string& out_path,
                      TraceFormat to,
                      std::uint32_t chunk_capacity = default_chunk_capacity);

}  // namespace xoridx::tracestore
