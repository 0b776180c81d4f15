// mmap-backed trace readers.
//
// Both readers decode straight into the caller's batch, in the caller's
// thread, with no buffer of their own: the mapping is demand-paged by the
// OS, so a pass holds the batch and nothing that grows with the trace.
//
// MmapTraceReader streams a v2 file through a cursor over the chunk it is
// in; V1FileSource streams the fixed-record v1 format.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "tracestore/format.hpp"
#include "tracestore/trace_id.hpp"
#include "tracestore/trace_source.hpp"

namespace xoridx::tracestore {

/// Read-only POSIX file mapping.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const unsigned char* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

struct TraceFileInfo {
  int version = 0;  ///< 1 or 2
  std::uint64_t accesses = 0;
  std::uint64_t chunks = 0;          ///< v2 only
  std::uint32_t chunk_capacity = 0;  ///< v2 only
  std::uint64_t file_bytes = 0;
  TraceId id;  ///< v2: from the header; v1: computed by a streaming scan
};

/// Streaming decoder over a v2 mapping. The header and the chunk index are
/// checked at open; each chunk is checked as the cursor enters it and each
/// access as it is decoded. Not thread-safe; each consumer opens its own
/// reader (mappings of one file share physical pages).
class MmapTraceReader final : public TraceSource {
 public:
  explicit MmapTraceReader(const std::string& path);
  explicit MmapTraceReader(std::shared_ptr<const MappedFile> file);

  std::size_t next_batch(std::span<trace::Access> out) override;
  void reset() override;
  [[nodiscard]] std::uint64_t size() const override {
    return info_.accesses;
  }

  [[nodiscard]] const TraceFileInfo& info() const noexcept { return info_; }

 private:
  void validate_and_load_header();
  [[nodiscard]] std::uint64_t chunk_offset(std::uint64_t idx) const;
  void enter_chunk(std::uint64_t idx);

  std::shared_ptr<const MappedFile> file_;
  TraceFileInfo info_;

  // Cursor over the current chunk.
  std::uint64_t next_chunk_ = 0;            ///< next chunk to enter
  const unsigned char* payload_ = nullptr;  ///< next address varint
  const unsigned char* kinds_ = nullptr;    ///< next kind byte
  const unsigned char* addr_end_ = nullptr; ///< end of the address varints
  std::uint64_t prev_ = 0;                  ///< previous address (delta base)
  std::uint32_t left_ = 0;                  ///< accesses left in the chunk
  std::uint64_t min_addr_ = 0;
  std::uint64_t max_addr_ = 0;
};

/// Streaming reader over the fixed-record v1 format.
class V1FileSource final : public TraceSource {
 public:
  explicit V1FileSource(const std::string& path);
  explicit V1FileSource(std::shared_ptr<const MappedFile> file);

  std::size_t next_batch(std::span<trace::Access> out) override;
  void reset() override { pos_ = 0; }
  [[nodiscard]] std::uint64_t size() const override { return count_; }

 private:
  std::shared_ptr<const MappedFile> file_;
  std::uint64_t count_ = 0;
  std::uint64_t pos_ = 0;
};

}  // namespace xoridx::tracestore
