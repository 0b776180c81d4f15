#include "tracestore/reader.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/metrics.hpp"

namespace xoridx::tracestore {

// ---------------------------------------------------------------- MappedFile

MappedFile::MappedFile(const std::string& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot stat " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      ::close(fd);
      throw std::runtime_error("cannot mmap " + path);
    }
    data_ = static_cast<const unsigned char*>(map);
  }
  ::close(fd);
}

MappedFile::~MappedFile() {
  if (data_ != nullptr)
    ::munmap(const_cast<unsigned char*>(data_), size_);
}

// ----------------------------------------------------------- MmapTraceReader

MmapTraceReader::MmapTraceReader(const std::string& path)
    : MmapTraceReader(std::make_shared<const MappedFile>(path)) {}

MmapTraceReader::MmapTraceReader(std::shared_ptr<const MappedFile> file)
    : file_(std::move(file)) {
  validate_and_load_header();
}

void MmapTraceReader::validate_and_load_header() {
  const unsigned char* base = file_->data();
  const std::size_t bytes = file_->size();
  if (bytes < v2_header_bytes ||
      std::memcmp(base, v2_magic.data(), v2_magic.size()) != 0)
    throw std::runtime_error("bad v2 trace magic: " + file_->path());
  const std::uint32_t header_bytes = load_le32(base + v2_off_header_bytes);
  if (header_bytes != v2_header_bytes)
    throw std::runtime_error("unsupported v2 header size in " +
                             file_->path());
  info_.version = 2;
  info_.file_bytes = bytes;
  info_.chunk_capacity = load_le32(base + v2_off_chunk_capacity);
  info_.accesses = load_le64(base + v2_off_access_count);
  info_.chunks = load_le64(base + v2_off_chunk_count);
  info_.id = {load_le64(base + v2_off_id_lo), load_le64(base + v2_off_id_hi)};
  if (info_.chunk_capacity == 0)
    throw std::runtime_error("v2 trace has zero chunk capacity: " +
                             file_->path());

  const std::uint64_t index_offset = load_le64(base + v2_off_index_offset);
  if (index_offset < v2_header_bytes || index_offset > bytes ||
      info_.chunks > (bytes - index_offset) / 8)
    throw std::runtime_error("v2 trace chunk index out of bounds: " +
                             file_->path());

  // Cross-check the declared total against the per-chunk counts (one
  // bounds-checked header peek per chunk, O(chunks) at open): consumers
  // size their structures from size(), so a lying total must fail here
  // with a clear error, not produce silently wrong profiles.
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < info_.chunks; ++i)
    sum += decode_chunk_header(base + chunk_offset(i)).count;
  if (sum != info_.accesses)
    throw std::runtime_error(
        "v2 trace header declares " + std::to_string(info_.accesses) +
        " accesses but chunks hold " + std::to_string(sum) + ": " +
        file_->path());
}

std::uint64_t MmapTraceReader::chunk_offset(std::uint64_t idx) const {
  const std::uint64_t index_offset =
      load_le64(file_->data() + v2_off_index_offset);
  const std::uint64_t off = load_le64(file_->data() + index_offset + 8 * idx);
  // Offsets stored in the index are untrusted input too: every consumer
  // (the open-time count check and entering a chunk) must stay inside the
  // mapping. Subtraction form so a near-UINT64_MAX offset cannot wrap the
  // check (file size >= v2_header_bytes > chunk header was validated at
  // open).
  if (off < v2_header_bytes ||
      off > file_->size() - v2_chunk_header_bytes)
    throw std::runtime_error("v2 trace chunk offset out of bounds: " +
                             file_->path());
  return off;
}

/// Point the cursor at the first access of chunk `idx`, after checking the
/// chunk header against the capacity and the mapping.
void MmapTraceReader::enter_chunk(std::uint64_t idx) {
  const std::uint64_t off = chunk_offset(idx);  // bounds-checked
  const ChunkHeader h = decode_chunk_header(file_->data() + off);
  if (h.count == 0 || h.count > info_.chunk_capacity)
    throw std::runtime_error("v2 trace chunk count corrupt: " +
                             file_->path());
  const std::uint64_t payload_off = off + v2_chunk_header_bytes;
  if (payload_off + h.payload_bytes > file_->size() ||
      h.payload_bytes < h.count)  // at least the kind byte per access
    throw std::runtime_error("v2 trace chunk payload out of bounds: " +
                             file_->path());
  payload_ = file_->data() + payload_off;
  // Kinds trail the address payload, one raw byte per access.
  addr_end_ = payload_ + h.payload_bytes - h.count;
  kinds_ = addr_end_;
  prev_ = 0;
  left_ = h.count;
  min_addr_ = h.min_addr;
  max_addr_ = h.max_addr;
  XORIDX_OBS_COUNT("tracestore.chunks_decoded", 1);
  XORIDX_OBS_COUNT("tracestore.accesses_decoded", h.count);
}

std::size_t MmapTraceReader::next_batch(std::span<trace::Access> out) {
  std::size_t written = 0;
  while (written < out.size()) {
    if (left_ == 0) {
      if (next_chunk_ == info_.chunks) break;
      enter_chunk(next_chunk_++);
    }
    const std::size_t n = std::min<std::size_t>(out.size() - written, left_);
    // Locals, so the stores into `out` cannot force the cursor's fields
    // to be reloaded on every access.
    const unsigned char* p = payload_;
    const unsigned char* const addr_end = addr_end_;
    const unsigned char* const kinds = kinds_;
    const std::uint64_t lo = min_addr_;
    const std::uint64_t hi = max_addr_;
    std::uint64_t prev = prev_;
    trace::Access* const dst = out.data() + written;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t addr =
          prev + static_cast<std::uint64_t>(
                     zigzag_decode(get_varint(p, addr_end)));
      prev = addr;
      if (addr < lo || addr > hi)
        throw std::runtime_error("v2 trace address outside chunk bounds: " +
                                 file_->path());
      const unsigned char kind = kinds[i];
      if (kind > 2)
        throw std::runtime_error("v2 trace has bad access kind: " +
                                 file_->path());
      dst[i] = {addr, static_cast<trace::AccessKind>(kind)};
    }
    payload_ = p;
    prev_ = prev;
    kinds_ += n;
    left_ -= static_cast<std::uint32_t>(n);
    written += n;
    if (left_ == 0 && payload_ != addr_end_)
      throw std::runtime_error("v2 trace chunk payload length mismatch: " +
                               file_->path());
  }
  return written;
}

void MmapTraceReader::reset() {
  next_chunk_ = 0;
  left_ = 0;
}

// -------------------------------------------------------------- V1FileSource

V1FileSource::V1FileSource(const std::string& path)
    : V1FileSource(std::make_shared<const MappedFile>(path)) {}

V1FileSource::V1FileSource(std::shared_ptr<const MappedFile> file)
    : file_(std::move(file)) {
  const unsigned char* base = file_->data();
  if (file_->size() < v1_header_bytes ||
      std::memcmp(base, v1_magic.data(), v1_magic.size()) != 0)
    throw std::runtime_error("bad v1 trace magic: " + file_->path());
  count_ = load_le64(base + v1_magic.size());
  const std::uint64_t body = file_->size() - v1_header_bytes;
  if (count_ > body / v1_record_bytes)
    throw std::runtime_error(
        "trace file truncated: header declares " + std::to_string(count_) +
        " accesses but only " + std::to_string(body) + " payload bytes in " +
        file_->path());
}

std::size_t V1FileSource::next_batch(std::span<trace::Access> out) {
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(out.size(),
                                                       count_ - pos_));
  const unsigned char* p =
      file_->data() + v1_header_bytes + pos_ * v1_record_bytes;
  for (std::size_t i = 0; i < n; ++i, p += v1_record_bytes) {
    const unsigned char kind = p[8];
    if (kind > 2)
      throw std::runtime_error("v1 trace has bad access kind: " +
                               file_->path());
    out[i] = {load_le64(p), static_cast<trace::AccessKind>(kind)};
  }
  pos_ += n;
  return n;
}

}  // namespace xoridx::tracestore
