// Chunked v2 trace writer.
//
// Appends accesses into a fixed-capacity chunk buffer; each full chunk is
// delta+varint encoded and flushed, so resident memory stays O(chunk) no
// matter how long the trace is. finish() writes the trailing chunk index,
// patches the header with the totals and the content TraceId, and commits
// the file into place atomically: bytes stream into `<path>.tmp.<pid>`
// and the destination only appears (complete, fsync'd) on a successful
// finish(). A crash or write failure mid-stream leaves no torn trace.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/atomic_file.hpp"
#include "tracestore/format.hpp"
#include "tracestore/trace_id.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::tracestore {

class TraceWriter {
 public:
  /// Opens the temp file and writes a placeholder header. Throws
  /// std::runtime_error on I/O failure, std::invalid_argument on a zero
  /// chunk capacity.
  explicit TraceWriter(const std::string& path,
                       std::uint32_t chunk_capacity = default_chunk_capacity);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const trace::Access& a);
  void append(std::uint64_t addr, trace::AccessKind kind) {
    append(trace::Access{addr, kind});
  }

  /// Flush the pending chunk, write the chunk index, patch the header and
  /// atomically commit the file into place. Returns the content id now
  /// stored in the header. Idempotent; the destructor calls it (swallowing
  /// errors) if needed — on failure the destination is left untouched.
  TraceId finish();

  [[nodiscard]] std::uint64_t accesses_written() const noexcept {
    return count_;
  }

 private:
  void flush_chunk();

  std::string path_;
  io::AtomicFileWriter out_;
  std::uint32_t chunk_capacity_;
  std::vector<trace::Access> pending_;
  std::vector<std::uint64_t> chunk_offsets_;
  std::vector<unsigned char> scratch_;
  TraceIdHasher hasher_;
  std::uint64_t count_ = 0;
  bool finished_ = false;
};

/// Write a whole trace as a v2 file (a source is reset first and streamed
/// with O(chunk) resident memory). Returns its content id.
TraceId save_trace_v2(const std::string& path, TraceInput t,
                      std::uint32_t chunk_capacity = default_chunk_capacity);

}  // namespace xoridx::tracestore
